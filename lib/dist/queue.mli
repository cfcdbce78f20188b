(** The [asmsim serve] engine: a single-threaded TCP job queue that
    accepts many concurrent sweep/explore submissions, deals their
    shards to remote workers, journals every completed shard, and
    streams the payloads back to the submitting clients — which merge
    locally, so results stay byte-identical to in-process runs.

    Robustness posture, all on one [Unix.select] loop:
    - handshake deadline and a typed reject for version or registry
      fingerprint skew — a wrong peer is told why and cut, never hung;
    - per-peer frame stall deadlines ({!Frame.decoder}'s
      [stall_timeout]) and byte-rate caps ({!Policy.rate_check}) on top
      of the frame size cap — slow-loris and flooding peers are cut;
    - heartbeats with the {!Policy.heartbeat} half-timeout ping, shard
      deadlines, and {!Policy.retry} backoff/hostile handling;
    - every accepted shard is journalled before it is streamed, so
      SIGTERM drains gracefully: stop accepting, let in-flight shards
      finish and checkpoint, tell clients [Sc_draining] (their job id
      resumes the work later), then exit cleanly;
    - completed journals double as a result cache: a fresh submit whose
      fingerprint matches a fully-completed journal of the same job is
      answered from that journal — found in one file read through
      {!Journal.completed_id}, payloads re-validated, zero shards
      re-executed ([net_cache_hits_total] counts the hits);
    - every worker told about a job is told when it is over
      ({!Proto.Nw_job_over}), so long-lived workers hold only live plans.

    The same engine also runs privately ({!run_fleet}): one job, one
    private Unix-domain socket, a fleet of forked workers — that is
    [--dist N]. *)

type config = {
  fingerprint : string;  (** scenario-registry fingerprint to enforce *)
  shard_size : int option;  (** fixed shard size; default scales to workers *)
  shard_timeout : float;
  heartbeat_timeout : float;
  handshake_timeout : float;
  frame_stall_timeout : float;  (** deadline for completing one frame *)
  rate_limit : int;  (** per-peer inbound bytes per second *)
  max_retries : int;  (** shard attempts before it is declared hostile *)
  backoff : float;  (** base of the exponential re-deal delay *)
  journal_dir : string;
  fsync : bool;  (** fsync journals on every checkpoint *)
  log : Svm.Log.t;
      (** leveled diagnostics: peer losses and retries at [Warn], job
          lifecycle at [Info], per-shard dealing at [Debug] *)
  metrics : Svm.Metrics.t option;
      (** connection / retry / queue-depth counters land here; also the
          base registry folded into {!Proto.Sc_stats} replies, together
          with every worker-pushed registry (live and departed) *)
  spans : Span.t option;
      (** when set, the queue stamps [admit]/[dispatch]/[merge] spans
          per job/shard for cross-process trace correlation *)
}

val default_config : fingerprint:string -> unit -> config

val serve :
  ?on_listen:(int -> unit) ->
  config ->
  lookup:(Proto.job -> (Worker.instance, string) result) ->
  Unix.sockaddr ->
  (unit, string) result
(** Run the service until SIGTERM completes a graceful drain ([Ok ()]).
    [on_listen] receives the actual bound port (bind to port 0 in
    tests). [lookup] expands submitted jobs — the server plans each job
    itself to know its cell count and validate worker payloads, and
    rejects submissions it cannot expand. [Error] is reserved for a
    broken listen address or an internal failure. *)

(** {1 Private fleet} *)

type fleet_stats = {
  job_id : string;  (** journal id: the [resume] handle *)
  shards : int;
  shard_size : int;
  resumed : int;  (** shards restored from the journal *)
  executed : int;  (** shard results received this run *)
  spawned : int;  (** worker processes forked, replacements included *)
  reassigned : int;  (** shard attempts lost to cut links or dead workers *)
}

val run_fleet :
  config ->
  workers:int ->
  exe:string ->
  ?chaos_kill_shard:int * int ->
  ?resume:string ->
  job:Proto.job ->
  Worker.instance ->
  ( [ `Complete of Svm.Json.t option array | `Suspended of string ]
    * fleet_stats,
    string )
  result
(** Serve one job on this domain: listen on {!Net.listen_private},
    register the job (fresh, or revived from journal [resume]; either
    way journalled under [config.journal_dir]), fork [workers] children
    [exe work --connect PATH], replace any that exit, and return the
    shard payloads once every shard the merge needs is in.
    [config.fingerprint] must be the children's registry fingerprint.
    SIGTERM drains the run to [`Suspended id]. A hostile shard, or
    children that keep exiting while the job stands still, is an
    [Error]. [chaos_kill_shard = (k, n)] cuts the link of the worker
    dealt shard [k], the first [n] times it is dealt. The children are
    killed and reaped, and the socket removed, before this returns. *)
