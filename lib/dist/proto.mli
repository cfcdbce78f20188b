(** Message vocabulary of the job queue's network protocol.

    The protocol leans entirely on determinism: a job description names
    a scenario plus the sweep/explore parameters, and {e both} sides
    independently expand it into the same {!Svm.Explore.sweep_plan} or
    {!Svm.Explore.plan} (planning is a pure function of the
    parameters). Nothing structural ever crosses the wire — a shard is
    a half-open index range into the shared plan, and a shard result is
    an opaque payload whose format {!Worker} alone knows.
    Counterexamples, violations and replay artifacts are {e never}
    serialized; the merging side recovers them by re-running the single
    finding cell locally.

    A worker speaks only when spoken to: job-ok or job-err to a job
    announcement, a pong to a ping, a result to an assignment.

    All decoders are total and return [result] — worker input is wire
    bytes from an arbitrary peer. *)

type sweep_params = {
  sw_tiers : string list;  (** fault kind names ({!Svm.Adversary}) *)
  sw_max_faults : int;
  sw_op_window : int;
  sw_max_runs : int;
  sw_budget : int option;
}

type explore_params = {
  ex_max_steps : int;
  ex_max_crashes : int;
  ex_max_runs : int;
  ex_dedup : bool;
}

type mode = Sweep of sweep_params | Explore of explore_params

type job = {
  scenario : string;  (** registered scenario name *)
  nprocs : int option;  (** process-count override, already resolved *)
  source : string option;
      (** DSL scenario source (protocol v3): when present, both sides
          compile the job from it instead of the builtin registry. The
          declared scenario name must match [scenario]. Size-capped at
          {!max_source_bytes} by the decoder. *)
  mode : mode;
}

val max_source_bytes : int
(** Decoder cap on [job.source] (equal to [Sdl.Compile.max_source_bytes]). *)

val job_to_json : job -> Svm.Json.t
val job_of_json : Svm.Json.t -> (job, string) result
(** Rejects a negative count or bound (faults, window, runs, budget,
    steps, crashes): planning it would raise. *)

val job_fingerprint : job -> string
(** Canonical one-line encoding, used to match a [--resume] request
    against the job recorded in a journal. *)

(** {1 Network handshake}

    The first frame on any TCP connection, in either direction of
    dialing: the connecting side introduces itself with magic, protocol
    version, role and its registry fingerprint; the server answers
    [Welcome] or a typed [Rejected] and closes. A peer that speaks
    anything else — or nothing, past the handshake deadline — is cut
    without ever touching a job. *)

val net_magic : string
val net_version : int

type role = Worker_role | Client_role

val role_name : role -> string

type hello = {
  h_version : int;
  h_role : role;
  h_fingerprint : string;
      (** scenario-registry fingerprint: both sides must expand a job
          into the identical plan, so a worker built against a
          different registry is rejected at the door instead of
          breaking determinism mid-job *)
}

val hello_to_json : hello -> Svm.Json.t
val hello_of_json : Svm.Json.t -> (hello, string) result

type welcome = Welcome | Rejected of string

val welcome_to_json : welcome -> Svm.Json.t
val welcome_of_json : Svm.Json.t -> (welcome, string) result

(** {1 Network worker session}

    Job-tagged: a worker serves many jobs over one connection. The
    server announces each job once ([Nw_job]) before dealing its shards
    and says when it is over ([Nw_job_over]), so the worker holds only
    the plans of live jobs. *)

type net_to_worker =
  | Nw_job of { jid : string; job : job }
      (** expand this job; reply [Nf_job_ok] with the plan size *)
  | Nw_assign of { jid : string; shard : int; lo : int; hi : int }
      (** compute cells/tasks [lo..hi-1] of the job's plan *)
  | Nw_job_over of { jid : string }
      (** v4: the job finished or failed; release its plan *)
  | Nw_ping
  | Nw_shutdown

type net_from_worker =
  | Nf_job_ok of { jid : string; cells : int }
  | Nf_job_err of { jid : string; msg : string }
  | Nf_pong of { metrics : Svm.Json.t option }
      (** v2: a pong may piggyback the worker's {!Svm.Metrics} snapshot,
          so the server aggregates fleet telemetry on the heartbeat
          cadence it already pays for — no extra frames, no extra
          timers, and a silent worker's staleness is visible as a
          missing push *)
  | Nf_result of { jid : string; shard : int; payload : Svm.Json.t }

val net_to_worker_to_json : net_to_worker -> Svm.Json.t
val net_to_worker_of_json : Svm.Json.t -> (net_to_worker, string) result
val net_from_worker_to_json : net_from_worker -> Svm.Json.t
val net_from_worker_of_json : Svm.Json.t -> (net_from_worker, string) result

(** {1 Network client session}

    A client submits one fully-resolved job (optionally resuming a
    journalled job id) and then receives every completed shard payload
    — journal-restored ones first — followed by a terminal [Sc_done],
    [Sc_failed] or [Sc_draining]. The client merges locally with the
    same {!Svm.Explore} merge the in-process path uses, which is what
    makes its stdout and artifacts byte-identical. *)

type client_to_server =
  | Cs_submit of { job : job; resume : string option }
  | Cs_stats
      (** v2: ask for the live stats document; answered immediately
          with {!Sc_stats} without disturbing running jobs *)
  | Cs_pong

type server_to_client =
  | Sc_accepted of { jid : string; cells : int; shard_size : int }
  | Sc_rejected of string
  | Sc_shard of { shard : int; payload : Svm.Json.t }
  | Sc_done of { executed : int; resumed : int }
  | Sc_failed of string
  | Sc_stats of Svm.Json.t
      (** v2 reply to {!Cs_stats}: a ["health"] summary (uptime, drain
          state, peers, queue depth, per-job progress) plus a
          ["metrics"] registry snapshot — the server's own counters
          folded with every worker-pushed registry via
          {!Svm.Metrics.merge} *)
  | Sc_draining
      (** server is draining on SIGTERM; the job is checkpointed in its
          journal and resumable by id *)
  | Sc_ping

val client_to_server_to_json : client_to_server -> Svm.Json.t
val client_to_server_of_json : Svm.Json.t -> (client_to_server, string) result
val server_to_client_to_json : server_to_client -> Svm.Json.t
val server_to_client_of_json : Svm.Json.t -> (server_to_client, string) result
