open Svm

type ('s, 'op, 'res) t = {
  name : string;
  init : 's;
  apply : 's -> 'op -> 's * 'res;
  op_codec : 'op Codec.t;
  res_codec : 'res Codec.t;
  pp_op : Format.formatter -> 'op -> unit;
  pp_res : Format.formatter -> 'res -> unit;
}

type queue_op = Enqueue of int | Dequeue
type stack_op = Push of int | Pop
type counter_op = Add of int | Get
type rmw_op = Read | Write of int | Compare_and_swap of int * int

(* Operations travel through consensus objects as (tag, payload) pairs.
   (The structural embeddings behind [Codec.pair]/[Codec.list] are shared
   globally, so codecs built here interoperate across calls.) *)
let tagged inj prj =
  let c = Codec.pair Codec.int (Codec.list Codec.int) in
  {
    Codec.inj = (fun v -> c.Codec.inj (inj v));
    prj = (fun u -> prj (c.Codec.prj u));
  }

let fifo_queue =
  let apply s = function
    | Enqueue v -> (s @ [ v ], None)
    | Dequeue -> ( match s with [] -> ([], None) | h :: t -> (t, Some h))
  in
  let op_codec =
    tagged
      (function Enqueue v -> (0, [ v ]) | Dequeue -> (1, []))
      (function
        | 0, [ v ] -> Enqueue v
        | 1, [] -> Dequeue
        | _ -> raise (Codec.Type_error "queue_op"))
  in
  let pp_op ppf = function
    | Enqueue v -> Format.fprintf ppf "enq(%d)" v
    | Dequeue -> Format.fprintf ppf "deq"
  in
  {
    name = "fifo-queue";
    init = [];
    apply;
    op_codec;
    res_codec = Codec.option Codec.int;
    pp_op;
    pp_res = (fun ppf r -> Format.fprintf ppf "%a" (Fmt.Dump.option Fmt.int) r);
  }

let lifo_stack =
  let apply s = function
    | Push v -> (v :: s, None)
    | Pop -> ( match s with [] -> ([], None) | h :: t -> (t, Some h))
  in
  let op_codec =
    tagged
      (function Push v -> (0, [ v ]) | Pop -> (1, []))
      (function
        | 0, [ v ] -> Push v
        | 1, [] -> Pop
        | _ -> raise (Codec.Type_error "stack_op"))
  in
  let pp_op ppf = function
    | Push v -> Format.fprintf ppf "push(%d)" v
    | Pop -> Format.fprintf ppf "pop"
  in
  {
    name = "lifo-stack";
    init = [];
    apply;
    op_codec;
    res_codec = Codec.option Codec.int;
    pp_op;
    pp_res = (fun ppf r -> Format.fprintf ppf "%a" (Fmt.Dump.option Fmt.int) r);
  }

let counter =
  let apply s = function Add d -> (s + d, s) | Get -> (s, s) in
  let op_codec =
    tagged
      (function Add d -> (0, [ d ]) | Get -> (1, []))
      (function
        | 0, [ d ] -> Add d
        | 1, [] -> Get
        | _ -> raise (Codec.Type_error "counter_op"))
  in
  let pp_op ppf = function
    | Add d -> Format.fprintf ppf "add(%d)" d
    | Get -> Format.fprintf ppf "get"
  in
  {
    name = "counter";
    init = 0;
    apply;
    op_codec;
    res_codec = Codec.int;
    pp_op;
    pp_res = Fmt.int;
  }

let rmw_register =
  let apply s = function
    | Read -> (s, s)
    | Write v -> (Some v, s)
    | Compare_and_swap (e, d) ->
        if s = Some e then (Some d, s) else (s, s)
  in
  let op_codec =
    tagged
      (function
        | Read -> (0, [])
        | Write v -> (1, [ v ])
        | Compare_and_swap (e, d) -> (2, [ e; d ]))
      (function
        | 0, [] -> Read
        | 1, [ v ] -> Write v
        | 2, [ e; d ] -> Compare_and_swap (e, d)
        | _ -> raise (Codec.Type_error "rmw_op"))
  in
  let pp_op ppf = function
    | Read -> Format.fprintf ppf "read"
    | Write v -> Format.fprintf ppf "write(%d)" v
    | Compare_and_swap (e, d) -> Format.fprintf ppf "cas(%d,%d)" e d
  in
  {
    name = "rmw-register";
    init = None;
    apply;
    op_codec;
    res_codec = Codec.option Codec.int;
    pp_op;
    pp_res = (fun ppf r -> Format.fprintf ppf "%a" (Fmt.Dump.option Fmt.int) r);
  }
