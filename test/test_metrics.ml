(* The metrics registry (Svm.Metrics) and its JSON snapshots.

   - histogram bucket boundaries: powers-of-two edges, zero, negatives,
     max_int, and the bucket_of/bucket_lo round-trip;
   - counters/gauges find-or-create semantics;
   - snapshot determinism: two identical replays of the same decision
     log into fresh registries snapshot byte-identically (the rule that
     makes telemetry replay-comparable);
   - pay-for-what-you-use: the metrics-off path of Exec.run allocates
     exactly as much as another metrics-off run, and strictly less than
     the same run with a registry attached;
   - snapshots are valid JSON, and the wall-clock section appears only
     behind the explicit flag. *)

open Svm
open Svm.Prog.Syntax

(* ------------------------------------------------------------------ *)
(* Buckets                                                              *)
(* ------------------------------------------------------------------ *)

let test_bucket_edges () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "negative -> bucket 0" 0 (Metrics.bucket_of (-17));
  Alcotest.(check int) "min_int -> bucket 0" 0 (Metrics.bucket_of min_int);
  Alcotest.(check int) "1 -> bucket 1" 1 (Metrics.bucket_of 1);
  (* Every power of two starts a new bucket; its predecessor ends one. *)
  for k = 1 to 61 do
    let v = 1 lsl k in
    Alcotest.(check int)
      (Printf.sprintf "2^%d opens bucket %d" k (k + 1))
      (k + 1) (Metrics.bucket_of v);
    Alcotest.(check int)
      (Printf.sprintf "2^%d - 1 closes bucket %d" k k)
      k
      (Metrics.bucket_of (v - 1))
  done;
  Alcotest.(check int) "max_int capped at last bucket" 62
    (Metrics.bucket_of max_int)

let test_bucket_lo () =
  Alcotest.(check int) "bucket 0 lo" 0 (Metrics.bucket_lo 0);
  for i = 1 to 62 do
    let lo = Metrics.bucket_lo i in
    Alcotest.(check int)
      (Printf.sprintf "bucket_lo %d round-trips" i)
      i (Metrics.bucket_of lo);
    if i > 1 then
      Alcotest.(check int)
        (Printf.sprintf "bucket_lo %d - 1 is previous bucket" i)
        (i - 1)
        (Metrics.bucket_of (lo - 1))
  done

let test_histogram_stats () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 0; 1; 5; 1024; max_int ];
  Alcotest.(check int) "count" 5 (Metrics.histogram_count m "h");
  Alcotest.(check int) "sum" (0 + 1 + 5 + 1024 + max_int)
    (Metrics.histogram_sum m "h");
  match Metrics.histograms m with
  | [ ("h", ((count, _), (min_v, max_v), buckets)) ] ->
      Alcotest.(check int) "listed count" 5 count;
      Alcotest.(check int) "min" 0 min_v;
      Alcotest.(check int) "max" max_int max_v;
      Alcotest.(check (list (pair int int)))
        "non-empty buckets"
        [ (0, 1); (1, 1); (3, 1); (11, 1); (62, 1) ]
        buckets
  | l -> Alcotest.failf "unexpected histogram listing (%d entries)" (List.length l)

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                  *)
(* ------------------------------------------------------------------ *)

let test_counters_gauges () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "c");
  Metrics.incr ~by:41 (Metrics.counter m "c");
  Alcotest.(check int) "find-or-create accumulates" 42
    (Metrics.counter_value m "c");
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.counter_value m "zz");
  let g = Metrics.gauge m "g" in
  Metrics.set g 7;
  Metrics.set_max g 3;
  Alcotest.(check int) "set_max keeps max" 7 (Metrics.gauge_value m "g");
  Metrics.set_max g 12;
  Alcotest.(check int) "set_max raises" 12 (Metrics.gauge_value m "g");
  Metrics.reset m;
  Alcotest.(check int) "reset clears" 0 (Metrics.counter_value m "c")

(* ------------------------------------------------------------------ *)
(* Snapshot determinism across identical replays                        *)
(* ------------------------------------------------------------------ *)

let sa_make () =
  let env = Env.create ~nprocs:3 ~x:1 () in
  let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
  let prog i =
    let* () =
      Shared_objects.Safe_agreement.propose sa ~key:[] (Codec.int.Codec.inj i)
    in
    Shared_objects.Safe_agreement.decide sa ~key:[]
  in
  (env, Array.init 3 prog)

let test_snapshot_determinism () =
  (* Record one run's decision log, then replay it twice into two fresh
     registries: the snapshots must be byte-identical. *)
  let env, progs = sa_make () in
  let r =
    Exec.run ~record_trace:true ~env ~adversary:(Adversary.random ~seed:7) progs
  in
  let decisions =
    match r.Exec.trace with
    | Some t -> Trace.decisions t
    | None -> Alcotest.fail "no trace recorded"
  in
  let snap () =
    let m = Metrics.create () in
    (match Explore.replay ~metrics:m ~make:sa_make ~monitors:(fun () -> []) decisions with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "healthy replay violated");
    Metrics.snapshot_string m
  in
  let s1 = snap () and s2 = snap () in
  Alcotest.(check string) "byte-identical snapshots" s1 s2;
  Alcotest.(check bool) "snapshot is non-trivial" true (String.length s1 > 100)

let test_sweep_metrics_accounting () =
  let m = Metrics.create () in
  let beats = ref 0 in
  let outcome =
    Explore.sweep_faults ~kinds:[ Adversary.Crash_stop ] ~max_faults:1
      ~op_window:2 ~max_runs:50 ~metrics:m
      ~on_progress:(fun ~runs:_ -> incr beats)
      ~make:sa_make
      ~monitors:(fun () -> [ Monitor.agreement () ])
      ()
  in
  Alcotest.(check int) "sweep.runs counts every run" outcome.Explore.runs
    (Metrics.counter_value m "sweep.runs");
  Alcotest.(check int) "heartbeat fired once per run" outcome.Explore.runs
    !beats;
  Alcotest.(check int)
    "verdicts partition the runs" outcome.Explore.runs
    (Metrics.counter_value m "sweep.verdict.clean"
    + Metrics.counter_value m "sweep.verdict.deadlocked"
    + Metrics.counter_value m "sweep.verdict.violating")

(* ------------------------------------------------------------------ *)
(* Pay-for-what-you-use                                                 *)
(* ------------------------------------------------------------------ *)

(* Words allocated by this domain so far. Not [Gc.allocated_bytes]: on
   OCaml 5.1 its minor count ([Gc.counters], [Gc.quick_stat]) counts
   the words allocated since the last minor collection at an eighth of
   their number, and the rest lands at the next collection. A
   collection falling between two reads thus adds about 7/8 of the
   minor heap (~1.8 MB at the default size), so a run that happened to
   meet one measured as megabytes. [Gc.minor_words] is exact; direct
   major allocations are major minus promoted words. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let allocated f =
  let before = allocated_words () in
  f ();
  (allocated_words () -. before) *. float_of_int (Sys.word_size / 8)

let test_metrics_off_allocates_nothing_extra () =
  let run metrics () =
    let env, progs = sa_make () in
    ignore
      (Exec.run ?metrics ~env ~adversary:(Adversary.round_robin ()) progs)
  in
  (* Warm up so one-time allocations (closures under the hood of the
     first run) don't pollute the measurement. *)
  run None ();
  run (Some (Metrics.create ())) ();
  let off1 = allocated (run None) in
  let off2 = allocated (run None) in
  let on_ = allocated (run (Some (Metrics.create ()))) in
  Alcotest.(check (float 0.0))
    "metrics-off runs allocate identically (no hidden per-op state)" off1 off2;
  Alcotest.(check bool)
    (Printf.sprintf
       "metrics-on allocates strictly more (off %.0fB vs on %.0fB)" off1 on_)
    true (on_ > off1)

(* ------------------------------------------------------------------ *)
(* Snapshot JSON shape                                                  *)
(* ------------------------------------------------------------------ *)

let test_snapshot_json () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "a.b");
  Metrics.observe (Metrics.histogram m "h") 5;
  let s = Metrics.snapshot_string ~pretty:true m in
  match Json.of_string s with
  | Error e -> Alcotest.failf "snapshot is not JSON: %s" e
  | Ok j ->
      Alcotest.(check (option int))
        "counter survives the round-trip" (Some 1)
        (Option.bind (Json.member "counters" j) (fun c ->
             Option.bind (Json.member "a.b" c) Json.to_int));
      Alcotest.(check bool)
        "no wall section without the flag" true
        (Json.member "wall" j = None)

let test_snapshot_wall_flag () =
  let m = Metrics.create ~wall_clock:true () in
  Metrics.incr (Metrics.counter m "c");
  match Json.of_string (Metrics.snapshot_string m) with
  | Error e -> Alcotest.failf "snapshot is not JSON: %s" e
  | Ok j ->
      Alcotest.(check bool)
        "wall section present behind the flag" true
        (Json.member "wall" j <> None)

(* ------------------------------------------------------------------ *)
(* Merge algebra and snapshot decoding                                  *)
(* ------------------------------------------------------------------ *)

(* A registry with enough shape to make merge order matter if merge were
   wrong: shared and disjoint counters, a max-tracked gauge, a histogram
   spanning several buckets including the <= 0 bucket. *)
let reg_of seed =
  let m = Metrics.create () in
  Metrics.incr ~by:(seed + 3) (Metrics.counter m "c.shared");
  Metrics.incr (Metrics.counter m (Printf.sprintf "c.only%d" seed));
  Metrics.set_max (Metrics.gauge m "g.peak") (10 * seed);
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ -seed; 0; seed; seed * seed; 1 lsl seed ];
  m

let snap = Metrics.snapshot_string

let test_merge_commutative () =
  let ab =
    let x = reg_of 1 in
    Metrics.merge ~into:x (reg_of 2);
    snap x
  in
  let ba =
    let x = reg_of 2 in
    Metrics.merge ~into:x (reg_of 1);
    snap x
  in
  Alcotest.(check string) "a+b = b+a" ab ba

let test_merge_associative () =
  let left =
    (* (a+b)+c *)
    let x = reg_of 1 in
    Metrics.merge ~into:x (reg_of 2);
    Metrics.merge ~into:x (reg_of 5);
    snap x
  in
  let right =
    (* a+(b+c) *)
    let bc = reg_of 2 in
    Metrics.merge ~into:bc (reg_of 5);
    let x = reg_of 1 in
    Metrics.merge ~into:x bc;
    snap x
  in
  Alcotest.(check string) "(a+b)+c = a+(b+c)" left right

let test_merge_sharded_identity () =
  (* The fleet invariant behind `asmsim top': the same 100 observations
     dealt to 1, 2 or 4 worker registries fold into byte-identical
     snapshots. *)
  let observe m i =
    Metrics.incr (Metrics.counter m "ops");
    Metrics.observe (Metrics.histogram m "latency") (i * 7 mod 113);
    Metrics.set_max (Metrics.gauge m "peak") i
  in
  let folded jobs =
    let regs = Array.init jobs (fun _ -> Metrics.create ()) in
    for i = 0 to 99 do
      observe regs.(i mod jobs) i
    done;
    let into = Metrics.create () in
    Array.iter (fun r -> Metrics.merge ~into r) regs;
    snap into
  in
  let s1 = folded 1 in
  Alcotest.(check string) "jobs=2 folds identically" s1 (folded 2);
  Alcotest.(check string) "jobs=4 folds identically" s1 (folded 4)

let test_of_snapshot_roundtrip () =
  let m = reg_of 4 in
  let s = Metrics.snapshot m in
  match Metrics.of_snapshot s with
  | Error e -> Alcotest.failf "of_snapshot rejected its own format: %s" e
  | Ok m2 ->
      Alcotest.(check string)
        "snapshot -> registry -> snapshot is byte-identical"
        (Json.to_string s)
        (snap m2);
      (* The wire path: decode a worker push, merge it — same result as
         merging the original registry. *)
      let direct =
        let x = reg_of 7 in
        Metrics.merge ~into:x m;
        snap x
      in
      let via_wire =
        let x = reg_of 7 in
        Metrics.merge ~into:x m2;
        snap x
      in
      Alcotest.(check string) "decoded registries merge like originals"
        direct via_wire

let test_of_snapshot_rejects_garbage () =
  let bad json =
    match Metrics.of_snapshot json with
    | Ok _ -> Alcotest.fail "garbage snapshot accepted"
    | Error _ -> ()
  in
  bad (Json.Obj [ ("counters", Json.List []) ]);
  bad (Json.Obj [ ("counters", Json.Obj [ ("c", Json.String "no") ]) ]);
  bad
    (Json.Obj
       [ ("histograms", Json.Obj [ ("h", Json.Obj [ ("count", Json.Int 1) ]) ]) ]);
  (* An empty object is a valid (empty) snapshot. *)
  match Metrics.of_snapshot (Json.Obj []) with
  | Ok m -> Alcotest.(check string) "empty decodes empty" (snap (Metrics.create ())) (snap m)
  | Error e -> Alcotest.failf "empty snapshot rejected: %s" e

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
        Alcotest.test_case "bucket_lo round-trip" `Quick test_bucket_lo;
        Alcotest.test_case "histogram stats and listing" `Quick
          test_histogram_stats;
        Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
        Alcotest.test_case "replay snapshots byte-identical" `Quick
          test_snapshot_determinism;
        Alcotest.test_case "sweep accounting and heartbeat" `Quick
          test_sweep_metrics_accounting;
        Alcotest.test_case "metrics-off path allocates no per-op state" `Quick
          test_metrics_off_allocates_nothing_extra;
        Alcotest.test_case "snapshot JSON shape" `Quick test_snapshot_json;
        Alcotest.test_case "wall section only behind the flag" `Quick
          test_snapshot_wall_flag;
        Alcotest.test_case "merge is commutative" `Quick test_merge_commutative;
        Alcotest.test_case "merge is associative" `Quick test_merge_associative;
        Alcotest.test_case "sharded folds are byte-identical (jobs=1/2/4)"
          `Quick test_merge_sharded_identity;
        Alcotest.test_case "of_snapshot round-trips and merges" `Quick
          test_of_snapshot_roundtrip;
        Alcotest.test_case "of_snapshot is total on garbage" `Quick
          test_of_snapshot_rejects_garbage;
      ] );
  ]
