exception Type_error of string

type 'a t = { inj : 'a -> Univ.t; prj : Univ.t -> 'a }

let of_embedding name (e : 'a Univ.embedding) =
  let prj u = try e.prj u with Univ.Mismatch -> raise (Type_error name) in
  { inj = e.inj; prj }

let int = of_embedding "int" (Univ.embed ())
let bool = of_embedding "bool" (Univ.embed ())
let string = of_embedding "string" (Univ.embed ())
let unit = of_embedding "unit" (Univ.embed ())
let any = { inj = Fun.id; prj = Fun.id }

(* Shared structural embeddings: all [pair]/[arr]/... codecs go through the
   same embedding so that independently constructed codecs interoperate. *)
let pair_e : (Univ.t * Univ.t) Univ.embedding = Univ.embed ()
let option_e : Univ.t option Univ.embedding = Univ.embed ()
let list_e : Univ.t list Univ.embedding = Univ.embed ()
let arr_e : Univ.t array Univ.embedding = Univ.embed ()
let key_e : (string * int list) Univ.embedding = Univ.embed ()

let pair a b =
  let p = of_embedding "pair" pair_e in
  {
    inj = (fun (x, y) -> p.inj (a.inj x, b.inj y));
    prj =
      (fun u ->
        let x, y = p.prj u in
        (a.prj x, b.prj y));
  }

let triple a b c =
  let p = pair a (pair b c) in
  {
    inj = (fun (x, y, z) -> p.inj (x, (y, z)));
    prj =
      (fun u ->
        let x, (y, z) = p.prj u in
        (x, y, z));
  }

let option a =
  let o = of_embedding "option" option_e in
  {
    inj = (fun v -> o.inj (Option.map a.inj v));
    prj = (fun u -> Option.map a.prj (o.prj u));
  }

let list a =
  let l = of_embedding "list" list_e in
  {
    inj = (fun v -> l.inj (List.map a.inj v));
    prj = (fun u -> List.map a.prj (l.prj u));
  }

let arr a =
  let l = of_embedding "array" arr_e in
  {
    inj = (fun v -> l.inj (Array.map a.inj v));
    prj = (fun u -> Array.map a.prj (l.prj u));
  }

let assoc a =
  let k = of_embedding "key" key_e in
  list (pair k a)
