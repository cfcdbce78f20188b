(* Byte pins for the plan engine (the static-split explorer).

   The plan engine defines the verdict whenever a counterexample or the
   run budget enters the picture, and it is what distributed explore
   shards run. These pins hold its answer — explored runs, the pruned
   counts, the budget flag, the counterexample's schedule and message,
   and the merged deterministic metrics snapshot — to the goldens under
   [plan_golden/], one file per explorable registry scenario, on every
   route an exploration can take: in-process at one and two domains,
   and through the distributed merge fed the workers' task summaries.

   Each scenario is pinned at (crashes, depth) = (0, d), (1, d),
   (1, d-2) and (2, d-4), d its default depth, plus one capped run whose
   cap is above the plan's task count, so the merge's budget cut-off is
   pinned too. *)

open Svm

type config = { crashes : int; steps : int; cap : int option }

let configs (s : Experiments.Scenario.t) =
  let d = s.Experiments.Scenario.explore_steps in
  let base =
    [
      { crashes = 0; steps = d; cap = None };
      { crashes = 1; steps = d; cap = None };
      { crashes = 1; steps = d - 2; cap = None };
      { crashes = 2; steps = d - 4; cap = None };
    ]
  in
  (* The benchmark's counterexample job: 4 processes, depth 16. *)
  let cex_job =
    if s.Experiments.Scenario.name = "x_safe_agreement_first_subset" then
      [ { crashes = 1; steps = 16; cap = None } ]
    else []
  in
  base @ cex_job

let scenarios () =
  List.filter
    (fun (s : Experiments.Scenario.t) -> s.Experiments.Scenario.explorable)
    (Experiments.Scenario.all ())

(* A cap strictly above the plan's task count at (1, d-2): large enough
   that phase A never stops splitting, small enough to cut the merge
   short wherever the space holds more runs than tasks. *)
let capped (s : Experiments.Scenario.t) =
  let steps = s.Experiments.Scenario.explore_steps - 2 in
  let p =
    Explore.plan ~max_crashes:1 ~max_steps:steps ~make:s.Experiments.Scenario.make
      ~property:s.Experiments.Scenario.exhaustive_property ()
  in
  { crashes = 1; steps; cap = Some (Explore.plan_tasks p + 1) }

let result_repr (r : 'a Explore.result) =
  let cex =
    match r.Explore.counterexample with
    | None -> "none"
    | Some (run, msg) ->
        Printf.sprintf "%s crashed=[%s] truncated=%b :: %s" run.Explore.schedule
          (String.concat ";" (List.map string_of_int run.Explore.crashed))
          run.Explore.truncated msg
  in
  Printf.sprintf
    "explored=%d pruned_states=%d pruned_commutes=%d pruned_source=%d \
     exhausted=%b\ncex=%s"
    r.Explore.explored r.Explore.pruned_states r.Explore.pruned_commutes
    r.Explore.pruned_source r.Explore.exhausted_budget cex

let header c =
  Printf.sprintf "== crashes=%d steps=%d cap=%s" c.crashes c.steps
    (match c.cap with None -> "none" | Some n -> string_of_int n)

let in_process ~jobs (s : Experiments.Scenario.t) c =
  let metrics = Metrics.create ~wall_clock:false () in
  let r =
    Explore.exhaustive_plan ~max_crashes:c.crashes ?max_runs:c.cap ~metrics
      ~jobs ~max_steps:c.steps ~make:s.Experiments.Scenario.make
      ~property:s.Experiments.Scenario.exhaustive_property ()
  in
  (r, metrics)

(* The workers' route: the job expanded as serve and workers expand it,
   every shard's summary list computed as a worker does, then folded by
   the merge every distributed executor uses. *)
let shard_size = 8

let through_merge (s : Experiments.Scenario.t) c =
  let job =
    Experiments.Harness.explore_job ~max_crashes:c.crashes ?max_runs:c.cap
      ~max_steps:c.steps s
  in
  let plan =
    match Experiments.Harness.dist_instance job with
    | Ok (Dist.Worker.Explore_instance p) -> p
    | Ok (Dist.Worker.Sweep_instance _) -> Alcotest.fail "not an explore plan"
    | Error m -> Alcotest.fail m
  in
  let tasks = Explore.plan_tasks plan in
  let payloads =
    Array.init
      ((tasks + shard_size - 1) / shard_size)
      (fun shard ->
        let lo = shard * shard_size in
        Some
          (Dist.Worker.compute_shard (Dist.Worker.Explore_instance plan) ~lo
             ~hi:(min tasks (lo + shard_size))
             ~tick:ignore))
  in
  let metrics = Metrics.create ~wall_clock:false () in
  let r = Dist.Merge.explore ~metrics plan ~shard_size ~payloads in
  (r, metrics)

let render route s =
  String.concat ""
    (List.map
       (fun c ->
         let r, metrics = route s c in
         Printf.sprintf "%s\n%s\n--- metrics\n%s\n" (header c) (result_repr r)
           (Metrics.snapshot_string metrics))
       (configs s @ [ capped s ]))

let golden (s : Experiments.Scenario.t) =
  In_channel.with_open_bin
    (Filename.concat "plan_golden" s.Experiments.Scenario.name)
    In_channel.input_all

let check_pin name route s () =
  Alcotest.(check string)
    (s.Experiments.Scenario.name ^ " via " ^ name)
    (golden s) (render route s)

(* A run budget may cut coverage short, but never silently: a capped
   exploration either says so ([exhausted_budget]) or has explored
   exactly what the uncapped one does. Subtrees that the sleep sets
   block yield no run at all, so a budget counted in tasks cannot stand
   in for one counted in runs. The plan engine is held to every cap in
   1-20; the default path (engine C, deferring to the plan engine on a
   budget hit) to a few, as each of its passes allocates its shared
   tables afresh. *)
let budget_never_hides_coverage () =
  List.iter
    (fun (s : Experiments.Scenario.t) ->
      let max_steps = s.Experiments.Scenario.explore_steps in
      let make = s.Experiments.Scenario.make in
      let property = s.Experiments.Scenario.exhaustive_property in
      List.iter
        (fun crashes ->
          List.iter
            (fun (engine, caps) ->
              let run ?max_runs () =
                if engine = "plan" then
                  Explore.exhaustive_plan ~max_crashes:crashes ?max_runs
                    ~max_steps ~make ~property ()
                else
                  Explore.exhaustive ~max_crashes:crashes ?max_runs ~max_steps
                    ~make ~property ()
              in
              (* only needed when a capped run claims full coverage *)
              let full = lazy (run ()).Explore.explored in
              List.iter
                (fun cap ->
                  let r = run ~max_runs:cap () in
                  if
                    not
                      (r.Explore.exhausted_budget
                      || r.Explore.explored = Lazy.force full)
                  then
                    Alcotest.failf
                      "%s crashes=%d --runs %d (%s engine): explored %d of %d \
                       with no budget flag"
                      s.Experiments.Scenario.name crashes cap engine
                      r.Explore.explored (Lazy.force full))
                caps)
            [ ("plan", List.init 20 succ); ("default", [ 2; 4; 8 ]) ])
        [ 0; 1 ])
    (scenarios ())

let suite =
  [
    ( "explore-budget",
      [
        Alcotest.test_case "a run budget never hides coverage" `Quick
          budget_never_hides_coverage;
      ] );
    ( "plan-golden",
      List.concat_map
        (fun (s : Experiments.Scenario.t) ->
          let n = s.Experiments.Scenario.name in
          [
            Alcotest.test_case (n ^ " jobs=1") `Quick
              (check_pin "jobs=1" (in_process ~jobs:1) s);
            Alcotest.test_case (n ^ " jobs=2") `Quick
              (check_pin "jobs=2" (in_process ~jobs:2) s);
            Alcotest.test_case (n ^ " merge of summaries") `Quick
              (check_pin "merge" through_merge s);
          ])
        (scenarios ()) );
  ]
