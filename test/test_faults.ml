(* The generalized fault taxonomy, end to end:

   - executor semantics of each tier (omission hangs, crash-recovery
     restarts and re-runs, Byzantine corrupts value ops and latches);
   - fault decisions round-trip through the replay artifact and re-drive
     bit-for-bit, stuck/restart sets included;
   - "everyone halted" is a typed [Deadlocked] verdict, not a crash;
   - corrupt artifacts are rejected with typed, line-numbered errors;
   - the shrinker weakens fault kinds toward crash-stop only when the
     weaker kind still violates. *)

open Svm
open Svm.Prog.Syntax

let outcome_str = function
  | Exec.Decided v -> Printf.sprintf "decided %d" v
  | Exec.Crashed -> "crashed"
  | Exec.Blocked -> "blocked"
  | Exec.Stuck -> "stuck"

let fault kind pid step =
  { Adversary.kind; trigger = Adversary.Crash_at_local { pid; step } }

let faults specs = Adversary.with_faults (Adversary.round_robin ()) specs

(* Write your input, spin until both components are there, decide the
   minimum — a tiny agreement-ish program whose progress depends on the
   other process's write landing. *)
let min_of_two n i =
  let* () = Prog.snap_set Codec.int "M" [] (10 + i) in
  Prog.loop
    (fun () ->
      let* cells = Prog.snap_scan Codec.int "M" [] in
      let vs = Array.to_list cells |> List.filter_map Fun.id in
      if List.length vs >= n then
        Prog.return (`Stop (List.fold_left min max_int vs))
      else Prog.return (`Again ()))
    ()

(* ------------------------------------------------------------------ *)
(* Tier semantics at the executor                                       *)
(* ------------------------------------------------------------------ *)

let test_omission_semantics () =
  let env = Env.create ~nprocs:2 ~x:1 () in
  let r =
    Exec.run ~budget:200 ~env
      ~adversary:(faults [ fault Adversary.Omission 0 0 ])
      [| min_of_two 2 0; min_of_two 2 1 |]
  in
  (* p0's very first write hangs: p0 is stuck (not crashed), p1 spins
     against its missing component until the budget ends. *)
  Alcotest.(check string) "victim stuck" "stuck" (outcome_str r.Exec.outcomes.(0));
  Alcotest.(check string) "waiter blocked" "blocked"
    (outcome_str r.Exec.outcomes.(1));
  Alcotest.(check (list int)) "stuck set" [ 0 ] r.Exec.stuck;
  Alcotest.(check (list int)) "no crashes" [] r.Exec.crashed;
  Alcotest.(check int) "hung op never executed" 0 r.Exec.op_counts.(0)

let test_recovery_semantics () =
  let env = Env.create ~nprocs:2 ~x:1 () in
  let r =
    Exec.run ~budget:400 ~env
      ~adversary:(faults [ fault Adversary.Crash_recovery 0 2 ])
      [| min_of_two 2 0; min_of_two 2 1 |]
  in
  (* p0 restarts after two ops, re-runs from the top (its snapshot write
     is idempotent here) and still decides; the restart is recorded. *)
  Alcotest.(check string) "victim recovered and decided" "decided 10"
    (outcome_str r.Exec.outcomes.(0));
  Alcotest.(check string) "other decided" "decided 10"
    (outcome_str r.Exec.outcomes.(1));
  Alcotest.(check (list int)) "restart set" [ 0 ] r.Exec.restarts;
  Alcotest.(check (list int)) "no stuck" [] r.Exec.stuck

let test_byzantine_corrupts_and_latches () =
  let env = Env.create ~nprocs:2 ~x:1 () in
  let r =
    Exec.run ~budget:400 ~record_trace:true ~env
      ~adversary:(faults [ fault Adversary.Byzantine 0 0 ])
      [| min_of_two 2 0; min_of_two 2 1 |]
  in
  (* p0's write is corrupted to a huge int; both processes then see
     {huge, 11} and decide min = 11 — the forged value flowed through
     shared memory deterministically. *)
  Alcotest.(check string) "honest process decided the surviving value"
    "decided 11"
    (outcome_str r.Exec.outcomes.(1));
  (* The latch: every value op of p0 from the trigger on is recorded as
     a Byz decision; scans (non-value ops) are not. *)
  let byz_steps =
    match r.Exec.trace with
    | None -> []
    | Some t ->
        List.filter_map
          (function Trace.Byz p -> Some p | _ -> None)
          (Trace.decisions t)
  in
  Alcotest.(check bool) "at least one Byz decision recorded" true
    (byz_steps <> []);
  Alcotest.(check bool) "all Byz decisions are p0's" true
    (List.for_all (Int.equal 0) byz_steps)

(* A corrupted value whose type no reader expects poisons the reader:
   it gets Stuck (decode failure under an active Byzantine fault), the
   run completes, nothing leaks as a decision. *)
let test_byzantine_poisons_typed_readers () =
  let env = Env.create ~nprocs:2 ~x:1 () in
  let pair = Codec.pair Codec.int Codec.int in
  let writer =
    let* () = Prog.snap_set pair "P" [] (1, 2) in
    Prog.return 0
  in
  let reader =
    Prog.loop
      (fun () ->
        let* cells = Prog.snap_scan pair "P" [] in
        match cells.(0) with
        | Some (a, b) -> Prog.return (`Stop (a + b))
        | None -> Prog.return (`Again ()))
      ()
  in
  let r =
    Exec.run ~budget:200 ~env
      ~adversary:(faults [ fault Adversary.Byzantine 0 0 ])
      [| writer; reader |]
  in
  Alcotest.(check string) "reader poisoned, not crashed" "stuck"
    (outcome_str r.Exec.outcomes.(1));
  Alcotest.(check (list int)) "reader in the stuck set" [ 1 ] r.Exec.stuck

(* ------------------------------------------------------------------ *)
(* Fault decisions replay bit-for-bit                                   *)
(* ------------------------------------------------------------------ *)

let check_same_run ~ctx (a : int Exec.result) (b : int Exec.result) =
  Alcotest.(check (list string))
    (ctx ^ ": outcomes")
    (Array.to_list a.Exec.outcomes |> List.map outcome_str)
    (Array.to_list b.Exec.outcomes |> List.map outcome_str);
  Alcotest.(check (list int))
    (ctx ^ ": op counts")
    (Array.to_list a.Exec.op_counts)
    (Array.to_list b.Exec.op_counts);
  Alcotest.(check (list int)) (ctx ^ ": crashed") a.Exec.crashed b.Exec.crashed;
  Alcotest.(check (list int)) (ctx ^ ": stuck") a.Exec.stuck b.Exec.stuck;
  Alcotest.(check (list int))
    (ctx ^ ": restarts") a.Exec.restarts b.Exec.restarts;
  Alcotest.(check int)
    (ctx ^ ": total steps") a.Exec.total_steps b.Exec.total_steps

let test_fault_tiers_roundtrip () =
  List.iter
    (fun (ctx, plan) ->
      let make_run adversary =
        let env = Env.create ~nprocs:3 ~x:1 () in
        Exec.run ~budget:500 ~record_trace:true ~env ~adversary
          [| min_of_two 3 0; min_of_two 3 1; min_of_two 3 2 |]
      in
      let original = make_run (faults plan) in
      let trace =
        match original.Exec.trace with
        | Some t -> t
        | None -> Alcotest.fail (ctx ^ ": no trace")
      in
      let artifact = Trace.to_replay trace in
      let decisions =
        match Trace.parse_replay artifact with
        | Ok (_, ds) -> ds
        | Error e ->
            Alcotest.fail
              (ctx ^ ": " ^ Format.asprintf "%a" Trace.pp_parse_error e)
      in
      let replayed = make_run (Adversary.of_replay decisions) in
      check_same_run ~ctx original replayed)
    [
      ("omission", [ fault Adversary.Omission 1 1 ]);
      ("recovery", [ fault Adversary.Crash_recovery 2 2 ]);
      ("byzantine", [ fault Adversary.Byzantine 0 0 ]);
      ( "mixed",
        [
          fault Adversary.Omission 1 2;
          fault Adversary.Crash_recovery 2 1;
          fault Adversary.Byzantine 0 0;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Deadlock is a verdict                                                *)
(* ------------------------------------------------------------------ *)

let test_all_stuck_is_deadlocked () =
  let make () =
    let env = Env.create ~nprocs:2 ~x:1 () in
    (env, [| min_of_two 2 0; min_of_two 2 1 |])
  in
  let verdict =
    Explore.run_fault ~budget:200 ~make
      ~monitors:(fun () -> [ Monitor.agreement () ])
      ~scheduler:(fun () -> Adversary.round_robin ())
      [
        { Explore.victim = 0; op = 0; kind = Adversary.Omission };
        { Explore.victim = 1; op = 0; kind = Adversary.Omission };
      ]
  in
  (match verdict with
  | Explore.Deadlocked -> ()
  | Explore.Clean -> Alcotest.fail "all-stuck run reported Clean"
  | Explore.Violating v ->
      Alcotest.fail ("all-stuck run reported violation: " ^ v.Monitor.message));
  (* And the sweep records it without stopping. *)
  let outcome =
    Explore.sweep_faults ~kinds:[ Adversary.Omission ] ~max_faults:2
      ~op_window:1 ~budget:200 ~make
      ~monitors:(fun () -> [ Monitor.agreement () ])
      ()
  in
  Alcotest.(check bool) "sweep recorded a deadlock schedule" true
    (outcome.Explore.deadlock <> None);
  Alcotest.(check bool) "sweep still covered the box" false
    outcome.Explore.exhausted;
  Alcotest.(check bool) "no violation invented" true
    (outcome.Explore.found = None)

(* ------------------------------------------------------------------ *)
(* Typed, line-numbered artifact errors                                 *)
(* ------------------------------------------------------------------ *)

let expect_error ~ctx ~line s =
  match Trace.parse_replay s with
  | Ok _ -> Alcotest.fail (ctx ^ ": corrupt artifact accepted")
  | Error e -> Alcotest.(check int) (ctx ^ ": error line") line e.Trace.line

let test_corrupt_artifacts_rejected () =
  expect_error ~ctx:"no magic" ~line:1 "schedule 0 1\nend 2\n";
  expect_error ~ctx:"bad token" ~line:2 "asmsim-replay 2\nschedule 0 Q1\nend 2\n";
  expect_error ~ctx:"bad fault pid" ~line:3
    "asmsim-replay 2\nmeta k v\nschedule 0 X-3\nend 2\n";
  expect_error ~ctx:"missing end trailer" ~line:2 "asmsim-replay 2\nschedule 0 1\n";
  expect_error ~ctx:"count mismatch" ~line:3
    "asmsim-replay 2\nschedule 0 1\nend 3\n";
  expect_error ~ctx:"trailing garbage" ~line:4
    "asmsim-replay 2\nschedule 0 1\nend 2\nschedule 1\n";
  expect_error ~ctx:"unrecognized line" ~line:2
    "asmsim-replay 2\nscheduled 0 1\nend 2\n";
  (* v1 artifacts predate the trailer and must still parse. *)
  (match Trace.parse_replay "asmsim-replay 1\nschedule 0 X1 0\n" with
  | Ok (_, ds) -> Alcotest.(check int) "v1 accepted" 3 (List.length ds)
  | Error e ->
      Alcotest.fail
        (Format.asprintf "v1 artifact rejected: %a" Trace.pp_parse_error e));
  (* The error pretty-printer carries the line number. *)
  match Trace.parse_replay "garbage\n" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e ->
      let s = Format.asprintf "%a" Trace.pp_parse_error e in
      Alcotest.(check bool) "printer names the line" true
        (String.length s >= 7 && String.sub s 0 7 = "line 1:")

(* ------------------------------------------------------------------ *)
(* Shrinking across kinds                                               *)
(* ------------------------------------------------------------------ *)

(* safe_agreement violates under crash-recovery (Figure 1's cancel is
   not idempotent under re-proposal) but NOT under crash-stop — so the
   shrinker must try the weaker kind, fail to validate it, and keep
   Crash_recovery in the minimal schedule. *)
let test_shrinker_keeps_necessary_kind () =
  let s =
    match Experiments.Scenario.find "safe_agreement" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let outcome =
    Experiments.Harness.sweep_scenario ~kinds:[ Adversary.Crash_recovery ]
      ~max_faults:1 s
  in
  match outcome.Explore.found with
  | None -> Alcotest.fail "recovery violation on safe_agreement not found"
  | Some f ->
      Alcotest.(check int) "minimal schedule has one fault point" 1
        (List.length f.Explore.shrunk.Explore.faults);
      List.iter
        (fun (p : Explore.fault_point) ->
          Alcotest.(check string)
            "kind not weakened to crash (crash-stop does not violate)"
            "recovery"
            (Adversary.fault_kind_name p.Explore.kind))
        f.Explore.shrunk.Explore.faults

(* The Byzantine acceptance loop through a scenario artifact: sweep,
   shrink, serialize, rebuild from metadata, reproduce the identical
   violation. *)
let test_byzantine_sweep_replays () =
  let s =
    match Experiments.Scenario.find "x_safe_agreement" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let outcome =
    Experiments.Harness.sweep_scenario ~kinds:[ Adversary.Byzantine ]
      ~max_faults:1 s
  in
  let f =
    match outcome.Explore.found with
    | Some f -> f
    | None -> Alcotest.fail "Byzantine integrity violation not found"
  in
  let v = f.Explore.violation in
  Alcotest.(check string) "integrity monitor fired" "decided-value-integrity"
    v.Monitor.monitor;
  let meta, decisions =
    match Trace.parse_replay f.Explore.replay with
    | Ok md -> md
    | Error e ->
        Alcotest.fail (Format.asprintf "%a" Trace.pp_parse_error e)
  in
  let s' =
    match Experiments.Scenario.of_replay_meta meta with
    | Ok s' -> s'
    | Error m -> Alcotest.fail m
  in
  match
    Explore.replay ~make:s'.Experiments.Scenario.make
      ~monitors:s'.Experiments.Scenario.monitors decisions
  with
  | Ok _ -> Alcotest.fail "recorded Byzantine violation did not reproduce"
  | Error v' ->
      Alcotest.(check string) "same monitor" v.Monitor.monitor v'.Monitor.monitor;
      Alcotest.(check int) "same step" v.Monitor.step v'.Monitor.step;
      Alcotest.(check string) "same message" v.Monitor.message v'.Monitor.message

(* ------------------------------------------------------------------ *)
(* Tracing is an observer                                               *)
(* ------------------------------------------------------------------ *)

(* A sweep cell runs untraced and its violation is re-derived by a
   traced re-run, so the two modes must agree on every run: same
   outcomes, counts and fault sets, same violation at the same step.
   The grid crosses every explorable registry scenario with the default
   schedulers and single fault points of every tier — restarts and
   Byzantine latching included — and the traced run's decision log must
   replay to the same result. *)
let run_mode ~record_trace ~budget (s : Experiments.Scenario.t) adversary =
  let env, progs = s.Experiments.Scenario.make () in
  match
    Exec.run ~budget ~record_trace
      ~monitors:(s.Experiments.Scenario.monitors ())
      ~env ~adversary progs
  with
  | r -> Ok r
  | exception Monitor.Violation v -> Error v

(* Everything a run reports except the trace, as one comparable string;
   decided values are compared separately, structurally. *)
let run_repr = function
  | Ok (r : Univ.t Exec.result) ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf
        "outcomes=%s ops=%s steps=%d crashed=%s stuck=%s restarts=%s"
        (String.concat ","
           (List.map Exec.outcome_name (Array.to_list r.Exec.outcomes)))
        (ints (Array.to_list r.Exec.op_counts))
        r.Exec.total_steps (ints r.Exec.crashed) (ints r.Exec.stuck)
        (ints r.Exec.restarts)
  | Error (v : Monitor.violation) ->
      Printf.sprintf "violation %s@%d pid=%d: %s" v.Monitor.monitor
        v.Monitor.step v.Monitor.pid v.Monitor.message

let same_run a b =
  String.equal (run_repr a) (run_repr b)
  &&
  match (a, b) with
  | Ok r, Ok r' -> r.Exec.outcomes = r'.Exec.outcomes
  | _ -> true

let test_tracing_changes_nothing () =
  let budget = 1_000 in
  let kinds = Adversary.[ Crash_stop; Omission; Crash_recovery; Byzantine ] in
  let restarted = ref false and latched = ref false in
  let mismatches = ref [] in
  let expect_same ctx a b =
    if not (same_run a b) then
      mismatches :=
        Printf.sprintf "%s:\n  %s\n  %s" ctx (run_repr a) (run_repr b)
        :: !mismatches
  in
  List.iter
    (fun (s : Experiments.Scenario.t) ->
      let nprocs = s.Experiments.Scenario.nprocs in
      let fault_sets =
        []
        :: List.concat_map
             (fun kind ->
               List.concat_map
                 (fun pid -> List.init 4 (fun op -> [ fault kind pid op ]))
                 (List.init nprocs Fun.id))
             kinds
      in
      List.iter
        (fun (sched, scheduler) ->
          List.iteri
            (fun i specs ->
              let ctx =
                Printf.sprintf "%s/%s/fault set %d" s.Experiments.Scenario.name
                  sched i
              in
              let adversary () = Adversary.with_faults (scheduler ()) specs in
              let traced =
                run_mode ~record_trace:true ~budget s (adversary ())
              in
              expect_same ctx traced
                (run_mode ~record_trace:false ~budget s (adversary ()));
              let decisions =
                match traced with
                | Ok { Exec.trace = Some t; _ }
                | Error { Monitor.trace = Some t; _ } ->
                    Trace.decisions t
                | Ok { Exec.trace = None; _ }
                | Error { Monitor.trace = None; _ } ->
                    Alcotest.fail (ctx ^ ": traced run has no trace")
              in
              (match traced with
              | Ok r when r.Exec.restarts <> [] -> restarted := true
              | Ok _ | Error _ -> ());
              (* A latched pid corrupts its later value ops too. *)
              if
                List.length
                  (List.filter
                     (function Trace.Byz _ -> true | _ -> false)
                     decisions)
                > 1
              then latched := true;
              expect_same (ctx ^ " replayed") traced
                (run_mode ~record_trace:false ~budget s
                   (Adversary.of_replay decisions)))
            fault_sets)
        (Explore.default_schedulers ~nprocs))
    (List.filter
       (fun s -> s.Experiments.Scenario.explorable)
       (Experiments.Scenario.all ()));
  Alcotest.(check (list string)) "traced and untraced runs agree" []
    (List.rev !mismatches);
  Alcotest.(check bool) "some run restarted a process" true !restarted;
  Alcotest.(check bool) "some Byzantine pid stayed latched" true !latched

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "omission: victim stuck, op never runs" `Quick
          test_omission_semantics;
        Alcotest.test_case "recovery: restart recorded, still decides" `Quick
          test_recovery_semantics;
        Alcotest.test_case "byzantine: corrupts value ops, latches" `Quick
          test_byzantine_corrupts_and_latches;
        Alcotest.test_case "byzantine: type-mismatched forgery poisons reader"
          `Quick test_byzantine_poisons_typed_readers;
        Alcotest.test_case "all fault tiers replay bit-for-bit" `Quick
          test_fault_tiers_roundtrip;
        Alcotest.test_case "all-stuck is a Deadlocked verdict" `Quick
          test_all_stuck_is_deadlocked;
        Alcotest.test_case "corrupt artifacts: typed line-numbered errors"
          `Quick test_corrupt_artifacts_rejected;
        Alcotest.test_case "shrinker keeps a necessary fault kind" `Quick
          test_shrinker_keeps_necessary_kind;
        Alcotest.test_case "byzantine sweep artifact reproduces exactly"
          `Quick test_byzantine_sweep_replays;
        Alcotest.test_case "tracing changes no run, and its log replays"
          `Quick test_tracing_changes_nothing;
      ] );
  ]
