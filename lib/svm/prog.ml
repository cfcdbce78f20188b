type 'a t =
  | Done of 'a
  | Step : 'r Op.t * ('r -> 'a t) -> 'a t
  | Await : 'r Op.t * ('r -> 'a t option) -> 'a t

let return x = Done x

(* [bind] maps through an [Await] once, when the program is built: a
   failed try ([None]) leaves an interpreter on this very node, so the
   node is physically the same however long the spin lasts. *)
let rec bind p f =
  match p with
  | Done v -> f v
  | Step (op, k) -> Step (op, fun r -> bind (k r) f)
  | Await (op, pred) ->
      Await
        ( op,
          fun r -> match pred r with None -> None | Some p -> Some (bind p f) )

let map f p = bind p (fun v -> Done (f v))
let perform op = Step (op, fun r -> Done r)
let yield = perform Op.Yield

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) p f = map f p
  let ( >>= ) = bind
end

open Syntax

let rec iter_list f = function
  | [] -> return ()
  | x :: rest ->
      let* () = f x in
      iter_list f rest

let rec fold_list f acc = function
  | [] -> return acc
  | x :: rest ->
      let* acc = f acc x in
      fold_list f acc rest

let rec loop body s =
  let* next = body s in
  match next with `Again s -> loop body s | `Stop v -> return v

let reg_read (c : 'a Codec.t) fam key =
  map (Option.map c.prj) (perform (Op.Reg_read (fam, key)))

let reg_write (c : 'a Codec.t) fam key v =
  perform (Op.Reg_write (fam, key, c.inj v))

let snap_set (c : 'a Codec.t) fam key v =
  perform (Op.Snap_set (fam, key, c.inj v))

(* Decode the scan in one pass, in the scan's own step. *)
let snap_scan (c : 'a Codec.t) fam key =
  let decode = function None -> None | Some u -> Some (c.prj u) in
  Step (Op.Snap_scan (fam, key), fun a -> Done (Array.map decode a))

let snap_scan_until (c : 'a Codec.t) fam key f =
  let decode = function None -> None | Some u -> Some (c.prj u) in
  Await
    ( Op.Snap_scan (fam, key),
      fun a ->
        match f (Array.map decode a) with None -> None | Some v -> Some (Done v)
    )

let ts fam key = perform (Op.Ts (fam, key))

let cons_propose (c : 'a Codec.t) fam key v =
  map c.prj (perform (Op.Cons_propose (fam, key, c.inj v)))

let kset_propose (c : 'a Codec.t) fam key v =
  map c.prj (perform (Op.Kset_propose (fam, key, c.inj v)))

let queue_enq (c : 'a Codec.t) fam key v =
  perform (Op.Queue_enq (fam, key, c.inj v))

let queue_deq (c : 'a Codec.t) fam key =
  map (Option.map c.prj) (perform (Op.Queue_deq (fam, key)))

let cas (c : 'a Codec.t) fam key ~expected ~desired =
  perform (Op.Cas (fam, key, Option.map c.inj expected, c.inj desired))
