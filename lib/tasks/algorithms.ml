open Svm
open Svm.Prog.Syntax

let int_c = Codec.int

(* ------------------------------------------------------------------ *)
(* k-set agreement in ASM(n, t, 1), t < k (Chaudhuri)                  *)
(* ------------------------------------------------------------------ *)

let count_some view = Array.fold_left (fun c e -> if e = None then c else c + 1) 0 view

let min_some view =
  Array.fold_left
    (fun m e -> match e with None -> m | Some v -> min m v)
    max_int view

(* Scan "mem" until n - t entries are written, then decide the least. *)
let await_quorum ~n ~t =
  Prog.snap_scan_until int_c "mem" [] (fun view ->
      if count_some view >= n - t then Some (int_c.Codec.inj (min_some view))
      else None)

let kset_read_write ~n ~t ~k =
  if t >= k then invalid_arg "Algorithms.kset_read_write: requires t < k";
  let model = Core.Model.read_write ~n ~t in
  let code ~pid:_ ~input =
    let v = int_c.Codec.prj input in
    let* () = Prog.snap_set int_c "mem" [] v in
    await_quorum ~n ~t
  in
  Core.Algorithm.make ~name:(Printf.sprintf "kset-rw(n=%d,t=%d,k=%d)" n t k)
    ~model code

let consensus_zero_resilient ~n = kset_read_write ~n ~t:0 ~k:1

(* ------------------------------------------------------------------ *)
(* Consensus from one n-ported consensus object                        *)
(* ------------------------------------------------------------------ *)

let consensus_direct ~n ~t =
  let model = Core.Model.make ~n ~t ~x:n in
  let code ~pid:_ ~input =
    let v = int_c.Codec.prj input in
    let* d = Prog.cons_propose int_c "cons" [] v in
    Prog.return (int_c.Codec.inj d)
  in
  Core.Algorithm.make ~name:(Printf.sprintf "consensus-direct(n=%d,t=%d)" n t)
    ~model code

(* ------------------------------------------------------------------ *)
(* k-set agreement in ASM(n, t, x), k > floor(t/x), programmed         *)
(* directly (requires x | n so that every group has exactly x          *)
(* members; see the interface for the analysis)                        *)
(* ------------------------------------------------------------------ *)

let kset_grouped ~n ~t ~x ~k =
  if n mod x <> 0 then
    invalid_arg "Algorithms.kset_grouped: requires x | n";
  if k <= t / x then
    invalid_arg "Algorithms.kset_grouped: requires k > floor(t/x)";
  let model = Core.Model.make ~n ~t ~x in
  let code ~pid ~input =
    let v = int_c.Codec.prj input in
    let group = pid / x in
    let* gv = Prog.cons_propose int_c "gcons" [ group ] v in
    let* () = Prog.snap_set int_c "mem" [] gv in
    await_quorum ~n ~t
  in
  Core.Algorithm.make
    ~name:(Printf.sprintf "kset-grouped(n=%d,t=%d,x=%d,k=%d)" n t x k)
    ~model code

(* ------------------------------------------------------------------ *)
(* (2n-1)-renaming in ASM(n, t, 1)                                     *)
(* ------------------------------------------------------------------ *)

let nth_free ~used r =
  (* r-th (1-based) positive integer not in [used]. *)
  let rec go candidate remaining =
    if List.mem candidate used then go (candidate + 1) remaining
    else if remaining = 1 then candidate
    else go (candidate + 1) (remaining - 1)
  in
  go 1 r

let renaming_read_write ~n ~t =
  let model = Core.Model.read_write ~n ~t in
  let cell = Codec.pair Codec.int Codec.int in
  let code ~pid ~input =
    let my_id = int_c.Codec.prj input in
    let* () = Prog.snap_set cell "rename" [] (my_id, 0) in
    Prog.loop
      (fun prop ->
        let* view = Prog.snap_scan cell "rename" [] in
        let others =
          List.filteri (fun j _ -> j <> pid) (Array.to_list view)
          |> List.filter_map (fun e -> e)
        in
        let conflict =
          List.exists (fun (_, p) -> p > 0 && p = prop) others
        in
        if prop > 0 && not conflict then
          Prog.return (`Stop (int_c.Codec.inj prop))
        else begin
          let ids = List.sort compare (my_id :: List.map fst others) in
          let rank =
            1 + (List.filteri (fun _ id -> id < my_id) ids |> List.length)
          in
          let used =
            List.filter_map (fun (_, p) -> if p > 0 then Some p else None) others
            |> Task.distinct
          in
          let prop' = nth_free ~used rank in
          let* () = Prog.snap_set cell "rename" [] (my_id, prop') in
          Prog.return (`Again prop')
        end)
      0
  in
  Core.Algorithm.make ~name:(Printf.sprintf "renaming-rw(n=%d,t=%d)" n t)
    ~model code

(* ------------------------------------------------------------------ *)
(* Approximate agreement                                               *)
(* ------------------------------------------------------------------ *)

let approximate_agreement ~n ~t ~rounds ~scale =
  if rounds < 1 || scale < 1 then
    invalid_arg "Algorithms.approximate_agreement";
  let model = Core.Model.read_write ~n ~t in
  let code ~pid:_ ~input =
    let v0 = int_c.Codec.prj input * scale in
    let rec round r v =
      if r > rounds then Prog.return (int_c.Codec.inj v)
      else
        let* () = Prog.snap_set int_c "aa" [ r ] v in
        let* view = Prog.snap_scan int_c "aa" [ r ] in
        let seen =
          Array.to_list view |> List.filter_map (fun c -> c)
        in
        let lo = List.fold_left min v seen and hi = List.fold_left max v seen in
        round (r + 1) ((lo + hi) / 2)
    in
    round 1 v0
  in
  Core.Algorithm.make
    ~name:(Printf.sprintf "approx-agreement(n=%d,t=%d,rounds=%d)" n t rounds)
    ~model code

(* ------------------------------------------------------------------ *)
(* Trivial task                                                        *)
(* ------------------------------------------------------------------ *)

let trivial ~n ~t =
  let model = Core.Model.read_write ~n ~t in
  let code ~pid:_ ~input =
    let v = int_c.Codec.prj input in
    let* () = Prog.snap_set int_c "mem" [] v in
    let* _ = Prog.snap_scan int_c "mem" [] in
    Prog.return (int_c.Codec.inj v)
  in
  Core.Algorithm.make ~name:(Printf.sprintf "trivial(n=%d,t=%d)" n t) ~model
    code
