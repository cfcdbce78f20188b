open Svm

let run_objects ?budget ~nprocs ~x ~adversary make =
  let env = Env.create ~nprocs ~x () in
  let progs = Array.init nprocs make in
  let result = Exec.run ?budget ~env ~adversary progs in
  (result, env)

let int_results r = List.map Codec.int.Codec.prj (Exec.decided r)

let all_equal = function
  | [] -> true
  | v :: rest -> List.for_all (Int.equal v) rest

let seeds n = List.init n (fun i -> i + 1)

let blocked_simulated ~n_simulated stats =
  let decided = Core.Bg_engine.decided_processes stats in
  List.filter (fun j -> not (List.mem j decided)) (List.init n_simulated Fun.id)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let sweep_scenario ?kinds ?max_faults ?op_window ?max_runs ?budget ?metrics
    ?on_progress ?jobs (s : Scenario.t) =
  Explore.sweep_faults ?kinds ?max_faults ?op_window ?max_runs ?budget ?metrics
    ?on_progress ?jobs ~meta:(Scenario.sweep_meta s) ~make:s.Scenario.make
    ~monitors:s.Scenario.monitors ()

let explore_scenario ?max_crashes ?max_runs ?max_steps ?metrics ?on_progress
    ?jobs ?dedup (s : Scenario.t) =
  if not s.Scenario.explorable then
    Error
      (Printf.sprintf
         "scenario %s is not explorable: its programs keep state in refs \
          outside the environment"
         s.Scenario.name)
  else
    let max_steps =
      match max_steps with Some d -> d | None -> s.Scenario.explore_steps
    in
    Ok
      (Explore.exhaustive ?max_crashes ?max_runs ?metrics ?on_progress ?jobs
         ?dedup ~max_steps ~make:s.Scenario.make
         ~property:s.Scenario.exhaustive_property ())

let sweep_check ?kinds ?max_faults ?op_window ?max_runs ?budget
    ?expect_violation ~label (s : Scenario.t) =
  let outcome =
    sweep_scenario ?kinds ?max_faults ?op_window ?max_runs ?budget s
  in
  let expected =
    match expect_violation with
    | Some e -> e
    | None -> s.Scenario.seeded_bug
  in
  let deadlock_note =
    match outcome.Explore.deadlock with
    | None -> ""
    | Some d ->
        Fmt.str "; deadlock finding under [%a]" Explore.pp_fault_schedule d
  in
  match outcome.Explore.found with
  | None ->
      Report.check ~label ~ok:(not expected)
        ~detail:
          (Printf.sprintf "no violation in %d runs%s%s" outcome.Explore.runs
             (if outcome.Explore.exhausted then " (budget hit)"
              else ", fault box covered")
             deadlock_note)
  | Some f ->
      let v = f.Explore.violation in
      Report.check ~label ~ok:expected
        ~detail:
          (Fmt.str "%s: %s at step %d [%a] (%d runs + %d shrink)%s"
             v.Monitor.monitor v.Monitor.message v.Monitor.step
             Explore.pp_fault_schedule f.Explore.shrunk outcome.Explore.runs
             f.Explore.shrink_runs deadlock_note)

(* {2 Distributed execution}

   A job must round-trip through {!Dist.Proto} carrying everything the
   plan depends on, so both helpers resolve every default to a concrete
   value here, at job-build time — a worker re-expanding the job on the
   other side of the wire cannot then disagree with the merging side. *)

(* A DSL-backed scenario ships its source inside the job, so the
   server/worker on the other side compiles the identical program even
   though its binary never registered the name. *)
let job_source (s : Scenario.t) =
  match s.Scenario.origin with
  | Scenario.Builtin -> None
  | Scenario.Sdl_source { source; _ } -> Some source

let sweep_job ?(kinds = [ Adversary.Crash_stop ]) ?(max_faults = 1)
    ?(op_window = 6) ?(max_runs = 5_000) ?budget (s : Scenario.t) =
  {
    Dist.Proto.scenario = s.Scenario.name;
    nprocs = Some s.Scenario.nprocs;
    source = job_source s;
    mode =
      Dist.Proto.Sweep
        {
          sw_tiers = List.map Adversary.fault_kind_name kinds;
          sw_max_faults = max_faults;
          sw_op_window = op_window;
          sw_max_runs = max_runs;
          sw_budget = budget;
        };
  }

let explore_job ?(max_crashes = 0) ?(max_runs = 2_000_000) ?(dedup = true)
    ?max_steps (s : Scenario.t) =
  let max_steps =
    match max_steps with Some d -> d | None -> s.Scenario.explore_steps
  in
  {
    Dist.Proto.scenario = s.Scenario.name;
    nprocs = Some s.Scenario.nprocs;
    source = job_source s;
    mode =
      Dist.Proto.Explore
        {
          ex_max_steps = max_steps;
          ex_max_crashes = max_crashes;
          ex_max_runs = max_runs;
          ex_dedup = dedup;
        };
  }

(* Resolve a job to its scenario: an embedded DSL source wins (parsed,
   validated and compiled right here — declarative data, no code
   execution; the decoder already size-capped it), otherwise the
   registry. The declared name must match the job's, or the shard
   bookkeeping and replay metadata would lie about what ran. *)
let scenario_of_job (job : Dist.Proto.job) =
  match job.Dist.Proto.source with
  | Some src -> (
      match Scenario.of_source ?nprocs:job.Dist.Proto.nprocs src with
      | Error m -> Error (Printf.sprintf "scenario source: %s" m)
      | Ok s ->
          if String.equal s.Scenario.name job.Dist.Proto.scenario then Ok s
          else
            Error
              (Printf.sprintf
                 "job names scenario %S but the submitted source declares %S"
                 job.Dist.Proto.scenario s.Scenario.name))
  | None -> Scenario.find ?nprocs:job.Dist.Proto.nprocs job.Dist.Proto.scenario

let dist_instance (job : Dist.Proto.job) =
  match scenario_of_job job with
  | Error m -> Error m
  | Ok s -> (
      match job.Dist.Proto.mode with
      | Dist.Proto.Sweep p -> (
          let kinds =
            List.fold_left
              (fun acc name ->
                match (acc, Adversary.fault_kind_of_name name) with
                | Error m, _ -> Error m
                | Ok _, None ->
                    Error (Printf.sprintf "unknown fault tier %s" name)
                | Ok ks, Some k -> Ok (k :: ks))
              (Ok []) p.Dist.Proto.sw_tiers
          in
          match kinds with
          | Error m -> Error m
          | Ok kinds_rev ->
              Ok
                (Dist.Worker.Sweep_instance
                   (Explore.sweep_plan ~kinds:(List.rev kinds_rev)
                      ~max_faults:p.Dist.Proto.sw_max_faults
                      ~op_window:p.Dist.Proto.sw_op_window
                      ~max_runs:p.Dist.Proto.sw_max_runs
                      ?budget:p.Dist.Proto.sw_budget
                      ~meta:(Scenario.sweep_meta s) ~make:s.Scenario.make
                      ~monitors:s.Scenario.monitors ())))
      | Dist.Proto.Explore p ->
          if not s.Scenario.explorable then
            Error
              (Printf.sprintf
                 "scenario %s is not explorable: its programs keep state in \
                  refs outside the environment"
                 s.Scenario.name)
          else
            Ok
              (Dist.Worker.Explore_instance
                 (Explore.plan ~max_crashes:p.Dist.Proto.ex_max_crashes
                    ~max_runs:p.Dist.Proto.ex_max_runs
                    ~dedup:p.Dist.Proto.ex_dedup
                    ~max_steps:p.Dist.Proto.ex_max_steps ~make:s.Scenario.make
                    ~property:s.Scenario.exhaustive_property ())))

(* {2 Network service}

   The handshake fingerprint digests the protocol version and each
   builtin scenario's shape (name, size, arity, default depth, and
   whether it is explorable or seeded with a bug), not its code:
   binaries whose scenario sets or defaults differ are rejected at the
   door, but two builds whose same-shaped scenarios differ only in code
   are not. *)

let scenarios_fingerprint scenarios =
  let h =
    List.fold_left
      (fun acc (s : Scenario.t) ->
        Hashtbl.hash
          ( acc,
            s.name,
            s.nprocs,
            s.x,
            s.explore_steps,
            s.explorable,
            s.seeded_bug ))
      (Hashtbl.hash ("asmsim-net", Dist.Proto.net_version))
      scenarios
  in
  Printf.sprintf "v%d:%08x" Dist.Proto.net_version (h land 0xffffffff)

(* Once per process: every --dist job asks for it. *)
let registry = lazy (scenarios_fingerprint (Scenario.all ()))
let registry_fingerprint () = Lazy.force registry

(* [--dist N]: the job on a private fleet of worker processes. *)
let run_job_dist ?metrics ?on_progress config (job : Dist.Proto.job) =
  match dist_instance job with
  | Error m -> Error m
  | Ok instance ->
      Dist.Coordinator.run ?metrics ?on_progress
        ~fingerprint:(registry_fingerprint ()) config ~job ~instance

let as_outcome what = function
  | Error m -> Error m
  | Ok (Dist.Client.Suspended id, st) -> Ok (Dist.Coordinator.Suspended id, st)
  | Ok (Dist.Client.Finished o, st) -> (
      match what o with
      | Some r -> Ok (Dist.Coordinator.Complete r, st)
      | None -> Error "internal: the job resolved to the other kind of plan")

let sweep_scenario_dist ?kinds ?max_faults ?op_window ?max_runs ?budget
    ?metrics ?on_progress config (s : Scenario.t) =
  let job = sweep_job ?kinds ?max_faults ?op_window ?max_runs ?budget s in
  as_outcome
    (function Dist.Client.Sweep_outcome o -> Some o | _ -> None)
    (run_job_dist ?metrics ?on_progress config job)

let explore_scenario_dist ?max_crashes ?max_runs ?max_steps ?dedup ?metrics
    ?on_progress config (s : Scenario.t) =
  let job = explore_job ?max_crashes ?max_runs ?dedup ?max_steps s in
  as_outcome
    (function Dist.Client.Explore_outcome r -> Some r | _ -> None)
    (run_job_dist ?metrics ?on_progress config job)

let submit_job_net ?metrics ?resume cfg (job : Dist.Proto.job) addr =
  match dist_instance job with
  | Error m -> Error m
  | Ok instance -> Dist.Client.submit ?metrics ?resume cfg ~instance ~job addr

let crash_before_fam ~pid ~prefix ~nth =
  Adversary.Crash_before_op
    {
      pid;
      nth;
      matches = (fun (info : Op.info) -> starts_with ~prefix info.Op.fam);
    }
