(* Unit tests for the crash-plan machinery: exactly when each
   [Adversary.crash_spec] fires, and how the specs interact when layered
   — driving [Adversary.fault_now] directly, outside any run. *)

open Svm

let snap_info : Op.info = { Op.kind = Op.Snapshot; fam = "MEM"; key = [] }
let cons_info : Op.info = { Op.kind = Op.Consensus; fam = "CONS"; key = [ 0 ] }

let ask adv ~pid ~local_step ~global_step ~next =
  Adversary.fault_now adv ~pid ~local_step ~global_step ~next
  = Some Adversary.Crash_stop

(* Crash_at_local fires exactly at the given local step, not before, not
   after (a process that survived its k-th op keeps running). *)
let test_at_local_exact () =
  let adv =
    Adversary.with_crashes (Adversary.round_robin ())
      [ Adversary.Crash_at_local { pid = 1; step = 2 } ]
  in
  Alcotest.(check bool)
    "step 0" false
    (ask adv ~pid:1 ~local_step:0 ~global_step:0 ~next:(Some snap_info));
  Alcotest.(check bool)
    "step 1" false
    (ask adv ~pid:1 ~local_step:1 ~global_step:5 ~next:(Some snap_info));
  Alcotest.(check bool)
    "wrong pid at the right step" false
    (ask adv ~pid:0 ~local_step:2 ~global_step:6 ~next:(Some snap_info));
  Alcotest.(check bool)
    "step 2 fires" true
    (ask adv ~pid:1 ~local_step:2 ~global_step:7 ~next:(Some snap_info));
  Alcotest.(check bool)
    "step 3 (past it) silent" false
    (ask adv ~pid:1 ~local_step:3 ~global_step:8 ~next:(Some snap_info));
  Alcotest.(check int) "one crash counted" 1 (Adversary.crash_count adv)

(* Crash_at_global is a threshold ([>=]), so it still fires when the
   victim's first opportunity comes after the named step — and only
   once. *)
let test_at_global_threshold () =
  let adv =
    Adversary.with_crashes (Adversary.round_robin ())
      [ Adversary.Crash_at_global { pid = 0; step = 10 } ]
  in
  Alcotest.(check bool)
    "below threshold" false
    (ask adv ~pid:0 ~local_step:0 ~global_step:9 ~next:(Some snap_info));
  Alcotest.(check bool)
    "first opportunity past the threshold fires" true
    (ask adv ~pid:0 ~local_step:1 ~global_step:17 ~next:(Some snap_info));
  Alcotest.(check bool)
    "fires at most once" false
    (ask adv ~pid:0 ~local_step:2 ~global_step:18 ~next:(Some snap_info))

(* Crash_before_op counts only matching operations of the right pid. *)
let test_before_op_counts_matches () =
  let is_cons (i : Op.info) = i.Op.kind = Op.Consensus in
  let adv =
    Adversary.with_crashes (Adversary.round_robin ())
      [ Adversary.Crash_before_op { pid = 2; nth = 1; matches = is_cons } ]
  in
  Alcotest.(check bool)
    "non-matching op ignored" false
    (ask adv ~pid:2 ~local_step:0 ~global_step:0 ~next:(Some snap_info));
  Alcotest.(check bool)
    "first match (nth=0) counted but not fired" false
    (ask adv ~pid:2 ~local_step:1 ~global_step:1 ~next:(Some cons_info));
  Alcotest.(check bool)
    "matching op of another pid ignored" false
    (ask adv ~pid:1 ~local_step:0 ~global_step:2 ~next:(Some cons_info));
  Alcotest.(check bool)
    "Yield (no info) ignored" false
    (ask adv ~pid:2 ~local_step:2 ~global_step:3 ~next:None);
  Alcotest.(check bool)
    "second match fires" true
    (ask adv ~pid:2 ~local_step:3 ~global_step:4 ~next:(Some cons_info))

(* All specs are evaluated on every query: a [Crash_before_op]'s match
   counter advances even on the query where another spec fires, so its
   own firing point does not shift. *)
let test_counter_advances_when_other_spec_fires () =
  let any (_ : Op.info) = true in
  let adv =
    Adversary.with_crashes (Adversary.round_robin ())
      [
        Adversary.Crash_at_local { pid = 0; step = 0 };
        Adversary.Crash_before_op { pid = 0; nth = 1; matches = any };
      ]
  in
  Alcotest.(check bool)
    "local spec fires on the first query" true
    (ask adv ~pid:0 ~local_step:0 ~global_step:0 ~next:(Some snap_info));
  (* The match counter saw op 0, so the very next matching op is nth=1. *)
  Alcotest.(check bool)
    "before_op spec fires immediately after" true
    (ask adv ~pid:0 ~local_step:1 ~global_step:1 ~next:(Some snap_info));
  Alcotest.(check int) "both crashes counted" 2 (Adversary.crash_count adv)

(* with_crashes layers over the base policy: scheduling is untouched and
   the base's own crash decisions still apply. *)
let test_layering_preserves_pick () =
  let base = Adversary.priority [ 3; 1 ] in
  let adv = Adversary.with_crashes base [] in
  Alcotest.(check int)
    "pick delegates to the base policy" 3
    (Adversary.pick adv ~runnable:[ 0; 1; 2; 3 ] ~global_step:0);
  Alcotest.(check bool)
    "no spec, no crash" false
    (ask adv ~pid:3 ~local_step:0 ~global_step:0 ~next:(Some snap_info))

(* of_replay: scheduling follows the decision log, crash decisions crash
   exactly the recorded pid, and exhausting the log falls back. *)
let test_of_replay_follows_log () =
  let adv =
    Adversary.of_replay
      [ Trace.Sched 2; Trace.Crash 1; Trace.Sched 0 ]
  in
  let runnable = [ 0; 1; 2 ] in
  Alcotest.(check int)
    "first decision schedules p2" 2
    (Adversary.pick adv ~runnable ~global_step:0);
  Alcotest.(check bool)
    "a Sched decision never crashes" false
    (ask adv ~pid:2 ~local_step:0 ~global_step:0 ~next:(Some snap_info));
  Alcotest.(check int)
    "crash decision still schedules its pid" 1
    (Adversary.pick adv ~runnable ~global_step:1);
  Alcotest.(check bool)
    "and crashes it at the crash query" true
    (ask adv ~pid:1 ~local_step:0 ~global_step:1 ~next:(Some snap_info));
  Alcotest.(check int)
    "next decision schedules p0" 0
    (Adversary.pick adv ~runnable:[ 0; 2 ] ~global_step:2);
  Alcotest.(check bool)
    "consumed without crashing" false
    (ask adv ~pid:0 ~local_step:1 ~global_step:2 ~next:(Some snap_info));
  (* Log exhausted: fall back to round-robin over the runnable set. *)
  let p = Adversary.pick adv ~runnable:[ 0; 2 ] ~global_step:3 in
  Alcotest.(check bool) "fallback picks a runnable pid" true (List.mem p [ 0; 2 ])

let suite =
  [
    ( "adversary",
      [
        Alcotest.test_case "Crash_at_local fires exactly at its step" `Quick
          test_at_local_exact;
        Alcotest.test_case "Crash_at_global is a >= threshold" `Quick
          test_at_global_threshold;
        Alcotest.test_case "Crash_before_op counts matching ops" `Quick
          test_before_op_counts_matches;
        Alcotest.test_case "match counters advance when another spec fires"
          `Quick test_counter_advances_when_other_spec_fires;
        Alcotest.test_case "with_crashes preserves the base policy" `Quick
          test_layering_preserves_pick;
        Alcotest.test_case "of_replay follows the decision log" `Quick
          test_of_replay_follows_log;
      ] );
  ]
