(** The connecting side of the network service: remote workers that
    pull shards over TCP, and submitting clients that ship a job and
    merge the shard stream locally.

    Both share one bounded-reconnect discipline: dial with a deadline,
    handshake, serve until the link drops, then back off with full
    jitter ({!Policy.reconnect_delay}) and reconnect. Consecutive
    failures to {e establish} a session are bounded by
    [config.max_failures]; a typed handshake rejection is permanent and
    never retried, and neither is a Unix-domain socket that refuses the
    dial or is gone (a private queue whose run ended). A live session
    resets the failure budget, so a chaos-ridden but reachable server is
    reconnected to indefinitely — which is exactly what the chaos
    harness exercises. *)

type config = {
  fingerprint : string;  (** our registry fingerprint, sent in the hello *)
  chaos : Net.chaos option;  (** worker-side write-path fault injection *)
  max_failures : int;  (** consecutive failed connection attempts allowed *)
  backoff_base : float;
  dial_timeout : float;
  read_timeout : float;
      (** per-frame read deadline; the server's heartbeats keep an
          idle, healthy link well under it *)
  log : Svm.Log.t;
      (** leveled diagnostics: link losses and retries at [Warn], job
          lifecycle at [Info], per-shard work at [Debug] *)
  metrics : Svm.Metrics.t option;
      (** worker-side counters (shards, cells, chaos cuts, link losses);
          a worker with a registry pushes its full snapshot to the
          server inside every heartbeat pong *)
  spans : Span.t option;
      (** when set, workers stamp [receive]/[execute]/[reply] spans and
          clients stamp [submit]/[collect] spans per job/shard *)
}

val default_config : fingerprint:string -> unit -> config

(** {1 Remote worker} *)

val worker_loop :
  config ->
  lookup:(Proto.job -> (Worker.instance, string) result) ->
  Unix.sockaddr ->
  int
(** Serve shards until the server says [Nw_shutdown] (exit 0), the
    connection budget runs out or a Unix-domain queue is gone (exit 1);
    a handshake rejection exits 2.
    One connection serves many jobs: the server announces each job once
    ([Nw_job]), the worker expands it with [lookup] and keeps the plan
    until the server says the job is over ([Nw_job_over]). All writes
    pass through the chaos harness when configured. *)

(** {1 Submitting client} *)

type outcome = Merge.outcome =
  | Sweep_outcome of Svm.Explore.sweep_outcome
  | Explore_outcome of Svm.Univ.t Svm.Explore.result

type submission =
  | Finished of outcome
  | Suspended of string
      (** the server drained (SIGTERM) mid-job; resubmit with this job
          id — against this or a restarted server — to continue *)

type stats = {
  job_id : string;
  shards : int;
  shard_size : int;
  resumed : int;  (** shards the server restored from its journal *)
  executed : int;  (** shards computed by workers this run *)
  reconnects : int;  (** times this client had to re-dial mid-job *)
}

val submit :
  ?metrics:Svm.Metrics.t ->
  ?resume:string ->
  config ->
  instance:Worker.instance ->
  job:Proto.job ->
  Unix.sockaddr ->
  (submission * stats, string) result
(** Submit [job], collect every shard payload the server streams, and
    fold them through {!Merge} — the same merge as the in-process path,
    which is what makes stdout and artifacts byte-identical to a local
    run. [instance] is the locally-expanded plan (its cell count
    cross-checks the server's [Sc_accepted]). If the link drops
    mid-job the client reconnects and resumes by job id, re-receiving
    the journalled backlog; [resume] seeds that id up front to continue
    a previously suspended job. *)

(** {1 Status probe} *)

val stats_query : config -> Unix.sockaddr -> (Svm.Json.t, string) result
(** Dial once, handshake as a client, send {!Proto.Cs_stats} and return
    the server's {!Proto.Sc_stats} document ([health] + merged
    [metrics]). No reconnect loop: a probe that cannot reach the server
    fails immediately — this is the backend of [asmsim top] and the
    smoke checks. *)
