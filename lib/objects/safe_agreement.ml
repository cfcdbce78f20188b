open Svm
open Svm.Prog.Syntax

type t = { fam : Op.fam }

(* SM entries are (value, level) pairs; level 0 = meaningless,
   1 = unstable, 2 = stable. *)
let cell : (Univ.t * int) Codec.t = Codec.pair Codec.any Codec.int

let make ~fam = { fam }

let level = function None -> 0 | Some (_, l) -> l

let propose t ~key v =
  let* () = Prog.snap_set cell t.fam key (v, 1) in
  let* sm = Prog.snap_scan cell t.fam key in
  let stable_exists = Array.exists (fun e -> level e = 2) sm in
  if stable_exists then Prog.snap_set cell t.fam key (v, 0)
  else Prog.snap_set cell t.fam key (v, 2)

let first_stable sm =
  let n = Array.length sm in
  let rec go i =
    if i >= n then None
    else
      match sm.(i) with
      | Some (v, 2) -> Some v
      | Some _ | None -> go (i + 1)
  in
  go 0

(* Wait until no entry is unstable and one is stable. With no stable
   entry yet (decide raced an early propose), keep scanning too. *)
let decide t ~key =
  Prog.snap_scan_until cell t.fam key (fun sm ->
      if Array.exists (fun e -> level e = 1) sm then None else first_stable sm)

let peek_decided env t ~key =
  match Env.peek_snapshot env t.fam key with
  | None -> None
  | Some sm ->
      let sm = Array.map (Option.map cell.Codec.prj) sm in
      if Array.exists (fun e -> level e = 1) sm then None
      else first_stable sm
