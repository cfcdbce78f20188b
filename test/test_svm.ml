(* Unit tests for the svm substrate: rng, codecs, combinatorics, the
   object environment, adversaries and the scheduler. *)

open Svm

let check = Alcotest.check
let int_list = Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let sa = List.init 50 (fun _ -> Rng.int a 1000) in
  let sb = List.init 50 (fun _ -> Rng.int b 1000) in
  check int_list "same seed, same stream" sa sb

let rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let sa = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" false (sa = sb)

let rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of bounds"
  done

let rng_bound_exhaustive () =
  (* Every residue of a small bound is hit. *)
  let r = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int r 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let rng_invalid_bound () =
  let r = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  let va = List.init 10 (fun _ -> Rng.int a 100) in
  let vb = List.init 10 (fun _ -> Rng.int b 100) in
  check int_list "copy continues identically" va vb

let rng_split () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let va = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let vb = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" false (va = vb)

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)
(* ------------------------------------------------------------------ *)

let codec_roundtrips () =
  check Alcotest.int "int" 42 Codec.(int.prj (int.inj 42));
  check Alcotest.bool "bool" true Codec.(bool.prj (bool.inj true));
  check Alcotest.string "string" "hi" Codec.(string.prj (string.inj "hi"));
  let p = Codec.pair Codec.int Codec.bool in
  check Alcotest.(pair int bool) "pair" (3, false) Codec.(p.prj (p.inj (3, false)));
  let t3 = Codec.triple Codec.int Codec.int Codec.string in
  let v = (1, 2, "x") in
  Alcotest.(check bool) "triple" true (Codec.(t3.prj (t3.inj v)) = v);
  let o = Codec.option Codec.int in
  check Alcotest.(option int) "some" (Some 5) Codec.(o.prj (o.inj (Some 5)));
  check Alcotest.(option int) "none" None Codec.(o.prj (o.inj None));
  let l = Codec.list Codec.int in
  check int_list "list" [ 1; 2; 3 ] Codec.(l.prj (l.inj [ 1; 2; 3 ]));
  let a = Codec.arr Codec.int in
  Alcotest.(check (array int)) "array" [| 4; 5 |] Codec.(a.prj (a.inj [| 4; 5 |]))

let codec_interop () =
  (* Two independently constructed structural codecs interoperate. *)
  let c1 = Codec.pair Codec.int (Codec.list Codec.bool) in
  let c2 = Codec.pair Codec.int (Codec.list Codec.bool) in
  let v = (7, [ true; false ]) in
  Alcotest.(check bool) "cross prj" true (Codec.(c2.prj (c1.inj v)) = v)

let codec_type_error () =
  let u = Codec.int.Codec.inj 1 in
  Alcotest.check_raises "bool of int" (Codec.Type_error "bool") (fun () ->
      ignore (Codec.bool.Codec.prj u))

(* Every structural projection names its own codec in the error, and a
   mismatch raises the same exception a base codec does. *)
let codec_structural_type_errors () =
  let u = Codec.int.Codec.inj 1 in
  let raises name prj =
    Alcotest.check_raises (name ^ " of int") (Codec.Type_error name)
      (fun () -> ignore (prj u))
  in
  raises "pair" Codec.(pair int int).Codec.prj;
  raises "option" Codec.(option int).Codec.prj;
  raises "list" Codec.(list int).Codec.prj;
  raises "array" Codec.(arr int).Codec.prj;
  Alcotest.check_raises "list of pair" (Codec.Type_error "list") (fun () ->
      let u = Codec.(pair int int).Codec.inj (1, 2) in
      ignore (Codec.(list int).Codec.prj u))

let codec_nested () =
  let c = Codec.list (Codec.option (Codec.pair Codec.int Codec.string)) in
  let v = [ Some (1, "a"); None; Some (2, "b") ] in
  Alcotest.(check bool) "nested roundtrip" true (Codec.(c.prj (c.inj v)) = v)

let codec_array_copies () =
  let c = Codec.arr Codec.int in
  let original = [| 1; 2; 3 |] in
  let u = c.Codec.inj original in
  original.(0) <- 99;
  check Alcotest.int "inj copied" 1 (c.Codec.prj u).(0);
  let out = c.Codec.prj u in
  out.(1) <- 99;
  check Alcotest.int "prj copied" 2 (c.Codec.prj u).(1)

let codec_assoc () =
  let c = Codec.assoc Codec.int in
  let v = [ (("mem", [ 1; 2 ]), 5); (("xcons", []), 7) ] in
  Alcotest.(check bool) "assoc roundtrip" true (Codec.(c.prj (c.inj v)) = v)

let codec_any_identity () =
  let u = Codec.string.Codec.inj "payload" in
  Alcotest.(check bool) "any is physical identity" true
    (Codec.any.Codec.prj (Codec.any.Codec.inj u) == u)

(* ------------------------------------------------------------------ *)
(* Combin                                                               *)
(* ------------------------------------------------------------------ *)

let combin_counts () =
  List.iter
    (fun (n, k) ->
      check Alcotest.int
        (Printf.sprintf "C(%d,%d)" n k)
        (Combin.binomial n k)
        (List.length (Combin.subsets ~n ~size:k)))
    [ (4, 2); (5, 3); (6, 1); (6, 6); (7, 0); (8, 4) ]

let combin_binomial_values () =
  check Alcotest.int "C(5,2)" 10 (Combin.binomial 5 2);
  check Alcotest.int "C(10,5)" 252 (Combin.binomial 10 5);
  check Alcotest.int "C(3,5)" 0 (Combin.binomial 3 5);
  check Alcotest.int "C(5,-1)" 0 (Combin.binomial 5 (-1));
  check Alcotest.int "C(0,0)" 1 (Combin.binomial 0 0)

let combin_subsets_sorted_lex () =
  let s = Combin.subsets ~n:4 ~size:2 in
  check
    Alcotest.(list int_list)
    "lex order"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    s

let combin_subsets_properties () =
  let s = Combin.subsets ~n:6 ~size:3 in
  List.iter
    (fun sub ->
      check Alcotest.int "size" 3 (List.length sub);
      Alcotest.(check bool) "sorted" true (List.sort compare sub = sub);
      Alcotest.(check bool) "distinct" true
        (List.sort_uniq compare sub = List.sort compare sub);
      Alcotest.(check bool) "in range" true
        (List.for_all (fun e -> e >= 0 && e < 6) sub))
    s;
  check Alcotest.int "no duplicates among subsets"
    (List.length s)
    (List.length (List.sort_uniq compare s))

let combin_floor_div () =
  check Alcotest.int "8/3" 2 (Combin.floor_div 8 3);
  check Alcotest.int "9/3" 3 (Combin.floor_div 9 3);
  check Alcotest.int "0/5" 0 (Combin.floor_div 0 5);
  Alcotest.check_raises "x=0" (Invalid_argument "Combin.floor_div: x must be positive")
    (fun () -> ignore (Combin.floor_div 3 0))

(* ------------------------------------------------------------------ *)
(* Env                                                                  *)
(* ------------------------------------------------------------------ *)

let env () = Env.create ~nprocs:4 ~x:2 ()

let env_register () =
  let e = env () in
  check Alcotest.(option int) "initially empty" None
    (Option.map Codec.int.Codec.prj (Env.apply e ~pid:0 (Op.Reg_read ("r", [ 1 ]))));
  Env.apply e ~pid:1 (Op.Reg_write ("r", [ 1 ], Codec.int.Codec.inj 5));
  check Alcotest.(option int) "read back" (Some 5)
    (Option.map Codec.int.Codec.prj (Env.apply e ~pid:2 (Op.Reg_read ("r", [ 1 ]))));
  (* distinct keys are distinct registers *)
  check Alcotest.(option int) "other key empty" None
    (Option.map Codec.int.Codec.prj (Env.apply e ~pid:2 (Op.Reg_read ("r", [ 2 ]))))

let env_snapshot () =
  let e = env () in
  Env.apply e ~pid:0 (Op.Snap_set ("s", [], Codec.int.Codec.inj 10));
  Env.apply e ~pid:2 (Op.Snap_set ("s", [], Codec.int.Codec.inj 30));
  let view = Env.apply e ~pid:3 (Op.Snap_scan ("s", [])) in
  let ints = Array.map (Option.map Codec.int.Codec.prj) view in
  Alcotest.(check (array (option int)))
    "own components" [| Some 10; None; Some 30; None |] ints

let env_snapshot_scan_is_copy () =
  let e = env () in
  Env.apply e ~pid:0 (Op.Snap_set ("s", [], Codec.int.Codec.inj 1));
  let v1 = Env.apply e ~pid:1 (Op.Snap_scan ("s", [])) in
  Env.apply e ~pid:0 (Op.Snap_set ("s", [], Codec.int.Codec.inj 2));
  check Alcotest.(option int) "old view unchanged" (Some 1)
    (Option.map Codec.int.Codec.prj v1.(0))

let env_ts () =
  let e = env () in
  Alcotest.(check bool) "first wins" true (Env.apply e ~pid:0 (Op.Ts ("t", [])));
  Alcotest.(check bool) "second loses" false (Env.apply e ~pid:1 (Op.Ts ("t", [])));
  Alcotest.(check bool) "other instance fresh" true
    (Env.apply e ~pid:1 (Op.Ts ("t", [ 9 ])))

let env_ts_needs_x2 () =
  let e = Env.create ~nprocs:2 ~x:1 () in
  Alcotest.(check bool) "x=1 refuses test&set" true
    (match Env.apply e ~pid:0 (Op.Ts ("t", [])) with
    | (_ : bool) -> false
    | exception Env.Violation _ -> true)

let env_cons_agreement () =
  let e = env () in
  let d0 =
    Env.apply e ~pid:0 (Op.Cons_propose ("c", [], Codec.int.Codec.inj 7))
  in
  let d1 =
    Env.apply e ~pid:1 (Op.Cons_propose ("c", [], Codec.int.Codec.inj 8))
  in
  check Alcotest.int "first proposal decided" 7 (Codec.int.Codec.prj d0);
  check Alcotest.int "agreement" 7 (Codec.int.Codec.prj d1)

let env_cons_ports () =
  let e = env () in
  ignore (Env.apply e ~pid:0 (Op.Cons_propose ("c", [], Codec.int.Codec.inj 1)));
  ignore (Env.apply e ~pid:1 (Op.Cons_propose ("c", [], Codec.int.Codec.inj 2)));
  (* pid 0 again is fine: already an accessor *)
  ignore (Env.apply e ~pid:0 (Op.Cons_propose ("c", [], Codec.int.Codec.inj 3)));
  Alcotest.(check bool) "third distinct pid refused" true
    (match Env.apply e ~pid:2 (Op.Cons_propose ("c", [], Codec.int.Codec.inj 4)) with
    | (_ : Univ.t) -> false
    | exception Env.Violation _ -> true);
  check int_list "accessors recorded" [ 0; 1 ] (Env.cons_accessors e "c" [])

let env_kset () =
  let e = Env.create ~nprocs:5 ~x:1 ~allow_kset:true () in
  let propose pid v =
    Codec.int.Codec.prj
      (Env.apply e ~pid (Op.Kset_propose ("k", [ 2 ], Codec.int.Codec.inj v)))
  in
  let ds = List.init 5 (fun i -> propose i (100 + i)) in
  let distinct = List.sort_uniq compare ds in
  Alcotest.(check bool) "at most k=2 distinct" true (List.length distinct <= 2);
  Alcotest.(check bool) "validity" true
    (List.for_all (fun d -> d >= 100 && d < 105) ds)

let env_kset_forbidden () =
  let e = env () in
  Alcotest.(check bool) "k-set refused without flag" true
    (match Env.apply e ~pid:0 (Op.Kset_propose ("k", [ 2 ], Codec.int.Codec.inj 1)) with
    | (_ : Univ.t) -> false
    | exception Env.Violation _ -> true)

let env_kind_mismatch () =
  let e = env () in
  Env.apply e ~pid:0 (Op.Reg_write ("obj", [], Codec.int.Codec.inj 1));
  Alcotest.(check bool) "snapshot op on register" true
    (match Env.apply e ~pid:0 (Op.Snap_scan ("obj", [])) with
    | (_ : Univ.t option array) -> false
    | exception Env.Violation _ -> true)

(* The messages are part of the verdicts a sweep prints: pinned. *)
let env_kind_mismatch_texts () =
  let u = Codec.int.Codec.inj 1 in
  let message setup op =
    let e = Env.create ~nprocs:2 ~x:1 ~allow_cas:true () in
    setup e;
    match op e with
    | () -> "no violation"
    | exception Env.Violation m -> m
  in
  let snap_set fam key e = Env.apply e ~pid:0 (Op.Snap_set (fam, key, u)) in
  let reg_write fam key e = Env.apply e ~pid:1 (Op.Reg_write (fam, key, u)) in
  check Alcotest.string "read of a snapshot"
    "object register m[1;2] accessed with mismatched kind"
    (message (snap_set "m" [ 1; 2 ]) (fun e ->
         ignore (Env.apply e ~pid:0 (Op.Reg_read ("m", [ 1; 2 ])))));
  check Alcotest.string "write to a snapshot"
    "object register m[1;2] accessed with mismatched kind"
    (message (snap_set "m" [ 1; 2 ]) (reg_write "m" [ 1; 2 ]));
  check Alcotest.string "cas on a snapshot"
    "object register m[] accessed with mismatched kind"
    (message (snap_set "m" []) (fun e ->
         ignore (Env.apply e ~pid:0 (Op.Cas ("m", [], None, u)))));
  check Alcotest.string "scan of a register"
    "object snapshot r[3] accessed with mismatched kind"
    (message (reg_write "r" [ 3 ]) (fun e ->
         ignore (Env.apply e ~pid:0 (Op.Snap_scan ("r", [ 3 ])))));
  check Alcotest.string "set on a register"
    "object snapshot r[] accessed with mismatched kind"
    (message (reg_write "r" []) (snap_set "r" []))

(* Instances are found by the contents of (family, key), never by the
   physical identity of the literal a program wrote. *)
let env_runtime_key () =
  let e = env () in
  let fam = String.concat "" [ "o"; "bj" ] and key = List.init 2 succ in
  Alcotest.(check bool) "family not physically the literal" true (fam != "obj");
  Env.apply e ~pid:0 (Op.Reg_write ("obj", [ 1; 2 ], Codec.int.Codec.inj 7));
  check Alcotest.(option int) "runtime key reads the literal's instance"
    (Some 7)
    (Option.map Codec.int.Codec.prj
       (Env.apply e ~pid:1 (Op.Reg_read (fam, key))));
  check Alcotest.int "one instance" 1 (Env.instance_count e)

(* A 41x41 grid of two-component keys holds pairs the key hash sends to
   the same bucket ([0; 31] and [1; 0], say, under a fold of h * 31 + x):
   every key must still be its own instance. *)
let env_colliding_keys () =
  let e = env () in
  let cells =
    List.concat_map (fun a -> List.init 41 (fun b -> (a, b))) (List.init 41 Fun.id)
  in
  List.iter
    (fun (a, b) ->
      let v = Codec.int.Codec.inj ((a * 100) + b) in
      Env.apply e ~pid:0 (Op.Reg_write ("c", [ a; b ], v)))
    cells;
  check Alcotest.int "one instance per key" (List.length cells)
    (Env.instance_count e);
  List.iter
    (fun (a, b) ->
      check Alcotest.(option int) "each key keeps its own value"
        (Some ((a * 100) + b))
        (Option.map Codec.int.Codec.prj (Env.peek_register e "c" [ a; b ])))
    cells

let env_pid_range () =
  let e = env () in
  Alcotest.(check bool) "pid out of range" true
    (match Env.apply e ~pid:4 Op.Yield with
    | () -> false
    | exception Env.Violation _ -> true)

let env_instance_count () =
  let e = env () in
  Env.apply e ~pid:0 (Op.Reg_write ("a", [], Codec.int.Codec.inj 1));
  Env.apply e ~pid:0 (Op.Reg_write ("a", [ 1 ], Codec.int.Codec.inj 1));
  Env.apply e ~pid:0 (Op.Snap_set ("b", [], Codec.int.Codec.inj 1));
  check Alcotest.int "three instances" 3 (Env.instance_count e)

(* ------------------------------------------------------------------ *)
(* Exec + Adversary                                                     *)
(* ------------------------------------------------------------------ *)

open Svm.Prog.Syntax

let counter_prog rounds =
  let rec go n =
    if n = rounds then Prog.return (Codec.int.Codec.inj n)
    else
      let* () = Prog.yield in
      go (n + 1)
  in
  go 0

let exec_all_decide () =
  let e = Env.create ~nprocs:3 ~x:1 () in
  let r =
    Exec.run ~env:e
      ~adversary:(Adversary.round_robin ())
      (Array.init 3 (fun _ -> counter_prog 5))
  in
  check Alcotest.int "all decided" 3 (Exec.decided_count r);
  check int_list "op counts" [ 5; 5; 5 ] (Array.to_list r.Exec.op_counts)

let exec_budget_blocks () =
  let e = Env.create ~nprocs:2 ~x:1 () in
  let spin =
    Prog.loop (fun () -> Prog.map (fun () -> `Again ()) Prog.yield) ()
  in
  let r =
    Exec.run ~budget:100 ~env:e
      ~adversary:(Adversary.round_robin ())
      [| spin; counter_prog 2 |]
  in
  check int_list "spinner blocked" [ 0 ] (Exec.blocked r);
  check Alcotest.int "other decided" 1 (Exec.decided_count r);
  check Alcotest.int "budget consumed" 100 r.Exec.total_steps

let exec_crash_at_local () =
  let e = Env.create ~nprocs:2 ~x:1 () in
  let adversary =
    Adversary.with_crashes
      (Adversary.round_robin ())
      [ Adversary.Crash_at_local { pid = 0; step = 3 } ]
  in
  let r = Exec.run ~env:e ~adversary (Array.init 2 (fun _ -> counter_prog 10)) in
  check int_list "crashed" [ 0 ] r.Exec.crashed;
  check Alcotest.int "crashed after 3 ops" 3 r.Exec.op_counts.(0);
  check Alcotest.int "other decided" 1 (Exec.decided_count r)

let exec_crash_before_op () =
  let e = Env.create ~nprocs:1 ~x:1 () in
  let prog =
    let* () = Prog.yield in
    let* () = Prog.snap_set Codec.int "m" [] 1 in
    let* () = Prog.yield in
    let* () = Prog.snap_set Codec.int "m" [] 2 in
    Prog.return (Codec.int.Codec.inj 0)
  in
  let adversary =
    Adversary.with_crashes
      (Adversary.round_robin ())
      [
        Adversary.Crash_before_op
          {
            pid = 0;
            nth = 1;
            matches = (fun i -> i.Op.kind = Op.Snapshot);
          };
      ]
  in
  let r = Exec.run ~env:e ~adversary [| prog |] in
  check int_list "crashed before 2nd snapshot op" [ 0 ] r.Exec.crashed;
  (* yield, set, yield executed; crash before the second set *)
  check Alcotest.int "three ops done" 3 r.Exec.op_counts.(0);
  check Alcotest.(option int) "first write landed" (Some 1)
    (Option.map Codec.int.Codec.prj (Env.peek_snapshot e "m" [] |> Option.get).(0))

let exec_deterministic () =
  let mk () =
    let e = Env.create ~nprocs:3 ~x:1 () in
    Exec.run ~env:e
      ~adversary:(Adversary.random ~seed:77)
      (Array.init 3 (fun _ -> counter_prog 20))
  in
  let r1 = mk () and r2 = mk () in
  check Alcotest.int "same total steps" r1.Exec.total_steps r2.Exec.total_steps

let exec_trace () =
  let e = Env.create ~nprocs:2 ~x:1 () in
  let r =
    Exec.run ~record_trace:true ~env:e
      ~adversary:(Adversary.round_robin ())
      (Array.init 2 (fun _ -> counter_prog 3))
  in
  match r.Exec.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      check Alcotest.int "one event per op" 6 (Trace.length t);
      let steps = List.map (fun e -> e.Trace.step) (Trace.events t) in
      Alcotest.(check bool) "steps increasing" true
        (List.sort compare steps = steps)

let exec_wrong_size () =
  let e = Env.create ~nprocs:3 ~x:1 () in
  Alcotest.(check bool) "size mismatch rejected" true
    (match
       Exec.run ~env:e ~adversary:(Adversary.round_robin ())
         [| counter_prog 1 |]
     with
    | (_ : Univ.t Exec.result) -> false
    | exception Invalid_argument _ -> true)

let adversary_round_robin_order () =
  let a = Adversary.round_robin () in
  let p1 = Adversary.pick a ~runnable:[ 0; 1; 2 ] ~global_step:0 in
  let p2 = Adversary.pick a ~runnable:[ 0; 1; 2 ] ~global_step:1 in
  let p3 = Adversary.pick a ~runnable:[ 0; 1; 2 ] ~global_step:2 in
  let p4 = Adversary.pick a ~runnable:[ 0; 1; 2 ] ~global_step:3 in
  check int_list "cycles" [ 0; 1; 2; 0 ] [ p1; p2; p3; p4 ]

let adversary_round_robin_skips () =
  let a = Adversary.round_robin () in
  let p1 = Adversary.pick a ~runnable:[ 1; 3 ] ~global_step:0 in
  let p2 = Adversary.pick a ~runnable:[ 1; 3 ] ~global_step:1 in
  let p3 = Adversary.pick a ~runnable:[ 1 ] ~global_step:2 in
  check int_list "skips missing" [ 1; 3; 1 ] [ p1; p2; p3 ]

let adversary_priority () =
  let a = Adversary.priority [ 2; 0 ] in
  check Alcotest.int "prefers 2" 2 (Adversary.pick a ~runnable:[ 0; 1; 2 ] ~global_step:0);
  check Alcotest.int "then 0" 0 (Adversary.pick a ~runnable:[ 0; 1 ] ~global_step:1);
  check Alcotest.int "then lowest unlisted" 1
    (Adversary.pick a ~runnable:[ 1; 3 ] ~global_step:2)

let adversary_crash_count () =
  let e = Env.create ~nprocs:2 ~x:1 () in
  let a =
    Adversary.with_crashes
      (Adversary.round_robin ())
      [
        Adversary.Crash_at_local { pid = 0; step = 0 };
        Adversary.Crash_at_local { pid = 1; step = 0 };
      ]
  in
  ignore (Exec.run ~env:e ~adversary:a (Array.init 2 (fun _ -> counter_prog 5)));
  check Alcotest.int "both crashes counted" 2 (Adversary.crash_count a)

let trace_limit () =
  let t = Trace.create ~limit:10 () in
  for i = 0 to 24 do
    Trace.add t { Trace.step = i; pid = 0; info = None }
  done;
  Alcotest.(check bool) "dropped some" true (Trace.dropped t > 0);
  let evs = Trace.events t in
  check Alcotest.int "keeps the newest" 24
    (List.fold_left (fun _ e -> e.Trace.step) (-1) evs)

let suite =
  [
    ( "svm.rng",
      [
        Alcotest.test_case "deterministic" `Quick rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick rng_seeds_differ;
        Alcotest.test_case "bounds" `Quick rng_bounds;
        Alcotest.test_case "all residues" `Quick rng_bound_exhaustive;
        Alcotest.test_case "invalid bound" `Quick rng_invalid_bound;
        Alcotest.test_case "copy" `Quick rng_copy_independent;
        Alcotest.test_case "split" `Quick rng_split;
      ] );
    ( "svm.codec",
      [
        Alcotest.test_case "roundtrips" `Quick codec_roundtrips;
        Alcotest.test_case "interop" `Quick codec_interop;
        Alcotest.test_case "type error" `Quick codec_type_error;
        Alcotest.test_case "structural type errors" `Quick
          codec_structural_type_errors;
        Alcotest.test_case "nested" `Quick codec_nested;
        Alcotest.test_case "array copies" `Quick codec_array_copies;
        Alcotest.test_case "assoc" `Quick codec_assoc;
        Alcotest.test_case "any identity" `Quick codec_any_identity;
      ] );
    ( "svm.combin",
      [
        Alcotest.test_case "counts" `Quick combin_counts;
        Alcotest.test_case "binomial values" `Quick combin_binomial_values;
        Alcotest.test_case "lex order" `Quick combin_subsets_sorted_lex;
        Alcotest.test_case "subset properties" `Quick combin_subsets_properties;
        Alcotest.test_case "floor_div" `Quick combin_floor_div;
      ] );
    ( "svm.env",
      [
        Alcotest.test_case "register" `Quick env_register;
        Alcotest.test_case "snapshot" `Quick env_snapshot;
        Alcotest.test_case "scan is copy" `Quick env_snapshot_scan_is_copy;
        Alcotest.test_case "test&set" `Quick env_ts;
        Alcotest.test_case "test&set needs x>=2" `Quick env_ts_needs_x2;
        Alcotest.test_case "consensus agreement" `Quick env_cons_agreement;
        Alcotest.test_case "consensus ports" `Quick env_cons_ports;
        Alcotest.test_case "k-set" `Quick env_kset;
        Alcotest.test_case "k-set forbidden" `Quick env_kset_forbidden;
        Alcotest.test_case "kind mismatch" `Quick env_kind_mismatch;
        Alcotest.test_case "kind mismatch texts" `Quick env_kind_mismatch_texts;
        Alcotest.test_case "runtime-built key" `Quick env_runtime_key;
        Alcotest.test_case "colliding keys stay distinct" `Quick
          env_colliding_keys;
        Alcotest.test_case "pid range" `Quick env_pid_range;
        Alcotest.test_case "instance count" `Quick env_instance_count;
      ] );
    ( "svm.exec",
      [
        Alcotest.test_case "all decide" `Quick exec_all_decide;
        Alcotest.test_case "budget blocks" `Quick exec_budget_blocks;
        Alcotest.test_case "crash at local step" `Quick exec_crash_at_local;
        Alcotest.test_case "crash before op" `Quick exec_crash_before_op;
        Alcotest.test_case "deterministic" `Quick exec_deterministic;
        Alcotest.test_case "trace" `Quick exec_trace;
        Alcotest.test_case "wrong size" `Quick exec_wrong_size;
      ] );
    ( "svm.adversary",
      [
        Alcotest.test_case "round robin order" `Quick adversary_round_robin_order;
        Alcotest.test_case "round robin skips" `Quick adversary_round_robin_skips;
        Alcotest.test_case "priority" `Quick adversary_priority;
        Alcotest.test_case "crash count" `Quick adversary_crash_count;
        Alcotest.test_case "trace limit" `Quick trace_limit;
      ] );
  ]
