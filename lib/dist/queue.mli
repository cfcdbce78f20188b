(** The [asmsim serve] job queue: concurrent sweep/explore submissions,
    their shards dealt to remote workers, every completed shard
    journalled and streamed back to the submitting clients, which merge
    locally, so results match in-process runs (byte-identical for
    sweeps; see {!Coordinator} for explorations).

    {!Queue_core} decides — sessions, jobs, shards, retries, deadlines,
    the drain, stats, journal calls — from events, with no socket and no
    clock. This module is the shell around it: the listener, one
    connection per peer with its {!Frame} decoder and byte-rate window
    ({!Policy.rate_check}), one [Unix.select] loop, SIGTERM and the
    clock. It carries out the core's actions in order; a failed write
    goes back to the core as a lost peer.

    Hence the robustness posture: a wrong peer (version, registry
    fingerprint, handshake deadline) gets a typed reject and is cut;
    slow-loris and flooding peers are cut by frame stall deadlines and
    byte-rate caps; dead workers by heartbeats and shard deadlines, their
    shards requeued with backoff until {!Policy.retry} calls one hostile;
    a job that cannot be planned is a typed [Sc_rejected], never the
    server's end. Every accepted shard is journalled before it is
    streamed, so SIGTERM drains: no new peers or shards, in-flight shards
    finish, clients hear [Sc_draining] and resume by job id later. A
    completed journal answers a resubmit of the same job with zero
    shards re-executed ({!Journal.completed_id}).

    The same loop runs privately too ({!run_fleet}): one job, a private
    Unix-domain socket, a fleet of forked workers — that is [--dist N]. *)

type config = Queue_core.config
(** Built with {!Queue_core.default_config}. *)

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

type fleet_stats = Queue_core.fleet_stats

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
