open Svm
open Svm.Prog.Syntax

let decided_ints = Sdl.Compile.decided_ints

(* Scope line for a clean result: how many representative runs were
   checked and how much of the tree the prunings discharged. *)
let scope (r : 'a Explore.result) =
  Printf.sprintf "%d runs (pruned %d states, %d commutes)" r.Explore.explored
    r.Explore.pruned_states r.Explore.pruned_commutes

let agreement_validity ~lo ~hi run =
  decided_ints run @@ fun ds ->
  match ds with
  | [] -> Ok ()
  | d :: rest ->
      if not (List.for_all (Int.equal d) rest) then
        Error
          (Printf.sprintf "disagreement: [%s]"
             (String.concat ";" (List.map string_of_int ds)))
      else if d < lo || d > hi then Error (Printf.sprintf "invalid value %d" d)
      else Ok ()

(* ------------------------------------------------------------------ *)
(* Safe agreement                                                       *)
(* ------------------------------------------------------------------ *)

let sa_make ~nprocs () =
  let env = Env.create ~nprocs ~x:1 () in
  let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
  let prog i =
    let* () =
      Shared_objects.Safe_agreement.propose sa ~key:[] (Codec.int.Codec.inj i)
    in
    Shared_objects.Safe_agreement.decide sa ~key:[]
  in
  (env, Array.init nprocs prog)

let sa_safety ~nprocs ~max_crashes ~max_steps () =
  let r =
    Explore.exhaustive ~max_crashes ~max_steps ~make:(sa_make ~nprocs)
      ~property:(agreement_validity ~lo:0 ~hi:(nprocs - 1))
      ()
  in
  Report.check
    ~label:
      (Printf.sprintf
         "safe agreement: ALL schedules, %d procs, <=%d crashes, depth %d"
         nprocs max_crashes max_steps)
    ~ok:(r.Explore.counterexample = None && not r.Explore.exhausted_budget)
    ~detail:
      (match r.Explore.counterexample with
      | None -> Printf.sprintf "%s, agreement+validity hold" (scope r)
      | Some (run, msg) ->
          Printf.sprintf "COUNTEREXAMPLE %s: %s" run.Explore.schedule msg)

let sa_termination () =
  (* Crash-free complete runs: everyone decides. *)
  let property run =
    if run.Explore.truncated then Ok ()
    else if
      Array.for_all
        (function Exec.Decided _ -> true | Exec.Crashed | Exec.Blocked | Exec.Stuck -> false)
        run.Explore.outcomes
    then Ok ()
    else Error "complete crash-free run without full termination"
  in
  let r =
    Explore.exhaustive ~max_steps:14 ~make:(sa_make ~nprocs:2) ~property ()
  in
  Report.check
    ~label:"safe agreement: crash-free termination in all complete runs"
    ~ok:(r.Explore.counterexample = None)
    ~detail:(scope r)

(* The explorer finds the ablation's bug on its own. The minimal
   counterexample needs a process with a smaller id to propose after
   another has already decided: two processes and eight steps suffice. *)
let sa_no_cancel_found () =
  let make () =
    let env = Env.create ~nprocs:2 ~x:1 () in
    let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
    let prog i =
      let* () =
        Shared_objects.Ablations.sa_propose_no_cancel ~fam:"SA" ~key:[]
          (Codec.int.Codec.inj i)
      in
      Shared_objects.Safe_agreement.decide sa ~key:[]
    in
    (env, Array.init 2 prog)
  in
  let r =
    Explore.exhaustive ~max_steps:10 ~make
      ~property:(agreement_validity ~lo:0 ~hi:1)
      ()
  in
  Report.check ~label:"explorer finds the no-cancel disagreement"
    ~ok:(r.Explore.counterexample <> None)
    ~detail:
      (match r.Explore.counterexample with
      | Some (run, msg) ->
          Printf.sprintf "found after %d schedules: %s (%s)"
            r.Explore.explored msg run.Explore.schedule
      | None -> "no counterexample found (bug in the explorer?)")

(* ------------------------------------------------------------------ *)
(* Winner bounds                                                        *)
(* ------------------------------------------------------------------ *)

let winners run =
  Array.to_list run.Explore.outcomes
  |> List.filter_map (function
       | Exec.Decided u -> Some (Codec.bool.Codec.prj u)
       | Exec.Crashed | Exec.Blocked | Exec.Stuck -> None)
  |> List.filter Fun.id |> List.length

let ts_exhaustive () =
  let make () =
    let env = Env.create ~nprocs:3 ~x:2 () in
    let ts = Shared_objects.Ts_from_cons.make ~fam:"TS" ~participants:3 in
    let prog i =
      Prog.map Codec.bool.Codec.inj
        (Shared_objects.Ts_from_cons.compete ts ~key:[] ~pid:i)
    in
    (env, Array.init 3 prog)
  in
  let property run =
    if winners run <= 1 then Ok ()
    else Error (Printf.sprintf "%d winners" (winners run))
  in
  let r =
    Explore.exhaustive ~max_crashes:1 ~max_steps:12 ~make ~property ()
  in
  Report.check
    ~label:"tournament test&set: <=1 winner in ALL schedules (3 procs, 1 crash)"
    ~ok:(r.Explore.counterexample = None && not r.Explore.exhausted_budget)
    ~detail:(scope r)

let x_compete_exhaustive () =
  let make () =
    let env = Env.create ~nprocs:3 ~x:2 () in
    let xc = Shared_objects.X_compete.make ~fam:"XC" ~participants:3 ~x:2 in
    let prog i =
      Prog.map Codec.bool.Codec.inj
        (Shared_objects.X_compete.compete xc ~key:[] ~pid:i)
    in
    (env, Array.init 3 prog)
  in
  let property run =
    if winners run <= 2 then Ok ()
    else Error (Printf.sprintf "%d winners" (winners run))
  in
  let r = Explore.exhaustive ~max_steps:14 ~make ~property () in
  Report.check ~label:"x_compete: <=x winners in ALL schedules (3 procs, x=2)"
    ~ok:(r.Explore.counterexample = None && not r.Explore.exhausted_budget)
    ~detail:(scope r)

let cons2_from_ts_exhaustive () =
  let make () =
    let env = Env.create ~nprocs:2 ~x:2 () in
    let prog pid =
      Prog.map Codec.int.Codec.inj
        (Universal.From_objects.cons2_from_ts ~fam:"G" ~key:[] ~pid (10 + pid))
    in
    (env, Array.init 2 prog)
  in
  let r =
    Explore.exhaustive ~max_crashes:1 ~max_steps:12 ~make
      ~property:(agreement_validity ~lo:10 ~hi:11)
      ()
  in
  Report.check
    ~label:"2-cons from test&set: agreement in ALL schedules (<=1 crash)"
    ~ok:(r.Explore.counterexample = None && not r.Explore.exhausted_budget)
    ~detail:(scope r)

(* ------------------------------------------------------------------ *)
(* Deeper bounds through the scenario registry                          *)
(* ------------------------------------------------------------------ *)

(* The pruned engine pays for itself in scope: bounds that were out of
   reach for the copy-per-branch explorer. Both rows drive the
   registered scenarios through [Harness.explore_scenario], i.e. the
   exact path [asmsim explore] uses. *)

let scenario_deeper ~label ~name ?nprocs ~extra_steps ?(max_crashes = 0) () =
  match Scenario.find ?nprocs name with
  | Error e -> Report.check ~label ~ok:false ~detail:e
  | Ok s -> (
      let max_steps = s.Scenario.explore_steps + extra_steps in
      match
        Harness.explore_scenario ~max_crashes ~max_steps s
      with
      | Error e -> Report.check ~label ~ok:false ~detail:e
      | Ok r ->
          Report.check ~label
            ~ok:(r.Explore.counterexample = None && not r.Explore.exhausted_budget)
            ~detail:
              (match r.Explore.counterexample with
              | None -> Printf.sprintf "depth %d: %s" max_steps (scope r)
              | Some (run, msg) ->
                  Printf.sprintf "COUNTEREXAMPLE %s: %s" run.Explore.schedule
                    msg))

let xsa_deeper () =
  scenario_deeper
    ~label:"x_safe_agreement: ALL schedules two steps past the default bound"
    ~name:"x_safe_agreement" ~extra_steps:2 ()

let sa_two_crash_budget () =
  scenario_deeper
    ~label:"safe agreement: ALL schedules, 3 procs, 2-crash budget, depth 12"
    ~name:"safe_agreement" ~nprocs:3 ~extra_steps:0 ~max_crashes:2 ()

let run () =
  {
    Report.id = "EX";
    title = "exhaustive schedule exploration (bounded model checking)";
    paper =
      "The agreement/validity properties of Figures 1, 5 and 6's \
       building blocks are universally quantified over schedules; within \
       a bounded scope we check them against every schedule, not a \
       sample.";
    metrics = [];
    checks =
      [
        sa_safety ~nprocs:2 ~max_crashes:1 ~max_steps:12 ();
        sa_safety ~nprocs:3 ~max_crashes:0 ~max_steps:12 ();
        sa_termination ();
        sa_no_cancel_found ();
        ts_exhaustive ();
        x_compete_exhaustive ();
        cons2_from_ts_exhaustive ();
        xsa_deeper ();
        sa_two_crash_budget ();
      ];
  }
