(** Shared plumbing for the object-level experiments. *)

val run_objects :
  ?budget:int ->
  nprocs:int ->
  x:int ->
  adversary:Svm.Adversary.t ->
  (int -> Svm.Univ.t Svm.Prog.t) ->
  Svm.Univ.t Svm.Exec.result * Svm.Env.t
(** [run_objects ~nprocs ~x ~adversary make] runs [make pid] for each
    process in a fresh environment and returns the result together with
    the environment (for peeking at object state). *)

val int_results : Svm.Univ.t Svm.Exec.result -> int list
(** Decided values decoded as ints, pid order. *)

val all_equal : int list -> bool

val seeds : int -> int list
(** [seeds n] = [1; 2; ...; n] — canonical seed list for sweeps. *)

val blocked_simulated :
  n_simulated:int -> Core.Bg_engine.stats -> int list
(** Simulated processes decided by no simulator: [{0..n-1}] minus
    {!Core.Bg_engine.decided_processes}. *)

val sweep_scenario :
  ?kinds:Svm.Adversary.fault_kind list ->
  ?max_faults:int ->
  ?op_window:int ->
  ?max_runs:int ->
  ?budget:int ->
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  ?jobs:int ->
  Scenario.t ->
  Svm.Explore.sweep_outcome
(** Run the systematic fault-point sweeper over a scenario, tagging any
    replay artifact with the scenario's {!Scenario.sweep_meta}. [kinds]
    defaults to crash-stop only, like {!Svm.Explore.sweep_faults};
    [metrics], [on_progress] and [jobs] are handed through to the
    sweeper (outcomes are identical at any job count). *)

val explore_scenario :
  ?max_crashes:int ->
  ?max_runs:int ->
  ?max_steps:int ->
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  ?jobs:int ->
  ?dedup:bool ->
  Scenario.t ->
  (Svm.Univ.t Svm.Explore.result, string) result
(** Exhaustively explore a scenario against its
    {!Scenario.exhaustive_property}, at depth [max_steps] (default: the
    scenario's [explore_steps]). [Error] when the scenario is not
    {!Scenario.t.explorable}. *)

val sweep_check :
  ?kinds:Svm.Adversary.fault_kind list ->
  ?max_faults:int ->
  ?op_window:int ->
  ?max_runs:int ->
  ?budget:int ->
  ?expect_violation:bool ->
  label:string ->
  Scenario.t ->
  Report.check
(** {!sweep_scenario} as a report check: ok iff a violation was found
    exactly when expected — by default when the scenario has a seeded
    bug; [expect_violation] overrides, e.g. for a healthy object whose
    safety provably degrades under a Byzantine tier. The detail carries
    the shrunk fault schedule, the violation message (or the number of
    runs swept clean), and any deadlock finding. *)

(** {1 Distributed execution}

    The glue between the scenario registry and [Dist]: building jobs
    (with every default resolved to a concrete value, so a worker
    re-expanding the job cannot disagree with the side that merges),
    resolving jobs back to worker instances, and [--dist] wrappers
    mirroring {!sweep_scenario} / {!explore_scenario}. *)

val sweep_job :
  ?kinds:Svm.Adversary.fault_kind list ->
  ?max_faults:int ->
  ?op_window:int ->
  ?max_runs:int ->
  ?budget:int ->
  Scenario.t ->
  Dist.Proto.job
(** Same defaults as {!sweep_scenario}. *)

val explore_job :
  ?max_crashes:int ->
  ?max_runs:int ->
  ?dedup:bool ->
  ?max_steps:int ->
  Scenario.t ->
  Dist.Proto.job
(** Same defaults as {!explore_scenario} (in particular [max_steps]
    defaults to the scenario's [explore_steps]). *)

val dist_instance : Dist.Proto.job -> (Dist.Worker.instance, string) result
(** Resolve a job to a worker instance: look the scenario up (with the
    job's process-count override), expand the plan. This is the [lookup]
    that [asmsim work --connect] and [asmsim serve] pass to {!Dist}, and
    the submitting wrappers below derive their own plan through it too
    — both sides of the wire expand the same job the same way. *)

val run_job_dist :
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  Dist.Coordinator.config ->
  Dist.Proto.job ->
  (Dist.Client.submission * Dist.Coordinator.stats, string) result
(** Run any job on a private fleet ({!Dist.Coordinator.run}) — the
    entry point for [--dist], and for resuming a journalled job whose
    mode is only known at run time. *)

val sweep_scenario_dist :
  ?kinds:Svm.Adversary.fault_kind list ->
  ?max_faults:int ->
  ?op_window:int ->
  ?max_runs:int ->
  ?budget:int ->
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  Dist.Coordinator.config ->
  Scenario.t ->
  ( Svm.Explore.sweep_outcome Dist.Coordinator.outcome
    * Dist.Coordinator.stats,
    string )
  result
(** {!sweep_scenario} across worker processes: same outcome, same
    replay artifact, same metrics increments — bit for bit. *)

val explore_scenario_dist :
  ?max_crashes:int ->
  ?max_runs:int ->
  ?max_steps:int ->
  ?dedup:bool ->
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  Dist.Coordinator.config ->
  Scenario.t ->
  ( Svm.Univ.t Svm.Explore.result Dist.Coordinator.outcome
    * Dist.Coordinator.stats,
    string )
  result
(** {!explore_scenario} across worker processes. *)

val registry_fingerprint : unit -> string
(** [scenarios_fingerprint] of the builtin scenarios at their default
    sizes, computed once per process and exchanged in the {!Dist.Net}
    handshake: a binary whose scenario set, scenario defaults or
    protocol differ is rejected at connect time. *)

val scenarios_fingerprint : Scenario.t list -> string
(** Digest of the network protocol version and, per scenario, its
    name, [nprocs], [x], [explore_steps], [explorable] and
    [seeded_bug]. It does not digest what a scenario does, so two
    builds whose scenarios share that shape but differ in code (a fixed
    bug, a changed monitor) still pass the handshake and could expand
    one job into different plans. *)

val submit_job_net :
  ?metrics:Svm.Metrics.t ->
  ?resume:string ->
  Dist.Client.config ->
  Dist.Proto.job ->
  Unix.sockaddr ->
  (Dist.Client.submission * Dist.Client.stats, string) result
(** Submit a job to an [asmsim serve] daemon: expand the plan locally
    (via {!dist_instance}, so the server's cell count is cross-checked)
    and merge the shard stream with {!Dist.Client.submit} — a sweep's
    output is byte-identical to the in-process run; an exploration's has
    the same verdict and counterexample, with the plan engine's counts. *)

val crash_before_fam :
  pid:int -> prefix:string -> nth:int -> Svm.Adversary.crash_spec
(** Crash [pid] just before its [nth] operation on any object family
    whose name starts with [prefix]. *)
