(* Byte pins for violating fault sweeps.

   A sweep cell's verdict is computed without a trace; only the first
   violating cell is re-run traced, inside [Explore.sweep_merge], to
   shrink and serialize it. These pins hold what that produces — the
   violating and shrunk schedules, the monitor and step, the shrink run
   count, the replay artifact's bytes and the deterministic metrics
   snapshot — to the goldens under [sweep_golden/], one per fault tier,
   on every route a sweep can take: in-process at one and two domains,
   and through the distributed merge fed the workers' verdict tags. *)

open Svm

type pin = {
  file : string;
  scenario : string;
  kinds : Adversary.fault_kind list;
}

let pins =
  [
    {
      file = "safe_agreement_no_cancel.crash";
      scenario = "safe_agreement_no_cancel";
      kinds = [ Adversary.Crash_stop ];
    };
    {
      file = "x_safe_agreement_first_subset.crash";
      scenario = "x_safe_agreement_first_subset";
      kinds = [ Adversary.Crash_stop ];
    };
    {
      file = "x_safe_agreement.byzantine";
      scenario = "x_safe_agreement";
      kinds = [ Adversary.Byzantine ];
    };
    {
      file = "safe_agreement.recovery";
      scenario = "safe_agreement";
      kinds = [ Adversary.Crash_recovery ];
    };
  ]

let scenario name =
  match Experiments.Scenario.find name with
  | Ok s -> s
  | Error m -> Alcotest.fail m

let sweep_repr (o : Explore.sweep_outcome) =
  let schedule = Format.asprintf "%a" Explore.pp_fault_schedule in
  let found =
    match o.Explore.found with
    | None -> "none"
    | Some f ->
        let v = f.Explore.violation in
        Printf.sprintf "%s >> %s | %s@%d pid=%d %s | shrink=%d\n%s"
          (schedule f.Explore.fault) (schedule f.Explore.shrunk)
          v.Monitor.monitor v.Monitor.step v.Monitor.pid v.Monitor.message
          f.Explore.shrink_runs f.Explore.replay
  in
  Printf.sprintf "runs=%d exhausted=%b deadlock=%s\nfound=%s" o.Explore.runs
    o.Explore.exhausted
    (match o.Explore.deadlock with None -> "none" | Some d -> schedule d)
    found

let render o metrics =
  Printf.sprintf "%s\n--- metrics\n%s\n" (sweep_repr o)
    (Metrics.snapshot_string metrics)

let in_process ~jobs pin =
  let metrics = Metrics.create ~wall_clock:false () in
  let o =
    Experiments.Harness.sweep_scenario ~kinds:pin.kinds ~metrics ~jobs
      (scenario pin.scenario)
  in
  render o metrics

(* The workers' route: every shard's tag string computed as a worker
   does, then folded by the merge every distributed executor uses. *)
let shard_size = 8

let through_merge pin =
  let s = scenario pin.scenario in
  let plan =
    Explore.sweep_plan ~kinds:pin.kinds
      ~meta:(Experiments.Scenario.sweep_meta s)
      ~make:s.Experiments.Scenario.make
      ~monitors:s.Experiments.Scenario.monitors ()
  in
  let cells = Explore.sweep_cells plan in
  let payloads =
    Array.init
      ((cells + shard_size - 1) / shard_size)
      (fun shard ->
        let lo = shard * shard_size in
        Some
          (Dist.Worker.compute_shard (Dist.Worker.Sweep_instance plan) ~lo
             ~hi:(min cells (lo + shard_size))
             ~tick:ignore))
  in
  let tagged_v =
    Array.exists
      (function Some (Json.String t) -> String.contains t 'V' | _ -> false)
      payloads
  in
  Alcotest.(check bool) "a worker tagged a cell V" true tagged_v;
  let metrics = Metrics.create ~wall_clock:false () in
  let o = Dist.Merge.sweep ~metrics plan ~shard_size ~payloads in
  render o metrics

let golden pin =
  In_channel.with_open_bin (Filename.concat "sweep_golden" pin.file)
    In_channel.input_all

let check_pin route run pin () =
  Alcotest.(check string) (pin.file ^ " via " ^ route) (golden pin) (run pin)

let suite =
  [
    ( "sweep-golden",
      List.concat_map
        (fun pin ->
          [
            Alcotest.test_case (pin.file ^ " jobs=1") `Quick
              (check_pin "jobs=1" (in_process ~jobs:1) pin);
            Alcotest.test_case (pin.file ^ " jobs=2") `Quick
              (check_pin "jobs=2" (in_process ~jobs:2) pin);
            Alcotest.test_case (pin.file ^ " merge of V tags") `Quick
              (check_pin "merge" through_merge pin);
          ])
        pins );
  ]
