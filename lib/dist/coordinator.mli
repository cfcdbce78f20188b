(** [--dist N]: run one job on a private fleet of N worker processes.

    A thin façade over {!Queue.run_fleet}: the job queue runs on the
    caller's domain, listening on a Unix-domain socket only this user
    can reach, and N forked [exe work --connect] children pull its
    shards exactly as remote workers pull a [serve] daemon's. Payloads fold through the same
    {!Merge} as every other path, so the outcome is that of an
    in-process run however the workers fare: bit-for-bit for a sweep;
    for an exploration the same verdict and counterexample, with the
    plan engine's counts ({!Svm.Explore.exhaustive_plan}). A dead child is
    replaced; a shard that loses its worker 3 times in a row is reported
    hostile; finished shards are journalled, and SIGTERM suspends the
    job for a later [resume]. *)

type config = {
  workers : int;  (** worker processes to keep alive *)
  shard_size : int option;  (** cells per shard; [None] = derived *)
  shard_timeout : float;  (** seconds before a stuck shard's link is cut *)
  exe : string;  (** worker binary, run as [exe work --connect ADDR] *)
  journal_dir : string option;
      (** where the job is journalled; [None] = {!Journal.default_dir} *)
  resume : string option;  (** job id to resume, from [journal_dir] *)
  chaos_kill_shard : (int * int) option;
      (** fault hook: [(shard, n)] cuts the link of the worker dealt
          that shard, the first [n] times it is dealt *)
  log : Svm.Log.t;
      (** leveled diagnostics: link losses and requeues at [Warn],
          lifecycle at [Info] *)
}

val default_config : ?workers:int -> ?exe:string -> unit -> config
(** Defaults: 2 workers, derived shard size, 120 s shard timeout,
    [Sys.executable_name], journal in {!Journal.default_dir}, no
    chaos. *)

type stats = Queue_core.fleet_stats = {
  job_id : string;
  shards : int;
  shard_size : int;
  resumed : int;
  executed : int;
  spawned : int;
  reassigned : int;
}

type 'a outcome =
  | Complete of 'a
  | Suspended of string
      (** drained by SIGTERM; the string is the job id to pass back as
          [resume] *)

val run :
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  fingerprint:string ->
  config ->
  job:Proto.job ->
  instance:Worker.instance ->
  (Client.submission * stats, string) result
(** Run [job], whose expansion on this side is [instance], and merge.
    [fingerprint] is the workers' registry fingerprint. Violating cells
    come back as bare tags; the merge re-runs the first one locally to
    recover the violation, shrink it and write the replay artifact. *)
