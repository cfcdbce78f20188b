(** The job queue's decisions, with no socket and no clock.

    The core owns what [serve] and [--dist] decide: peer sessions and
    handshakes, jobs and their shards, dealing, retries and the hostile
    bound, shard and heartbeat deadlines, the drain, the stats document
    and every journal call. It never touches a file descriptor, a signal
    or a process, and no decision reads the clock: each event comes with
    its [~now], and the answer is the list of {!action}s the transport
    must carry out, in order. {!Queue} is the shell that feeds it from
    one [select] loop; a test can feed it directly over a virtual clock. *)

type config = {
  fingerprint : string;  (** scenario-registry fingerprint to enforce *)
  shard_size : int option;  (** fixed shard size; default scales to workers *)
  shard_timeout : float;
  heartbeat_timeout : float;
  rate_limit : int;  (** per-peer inbound bytes per second (the shell's) *)
  max_retries : int;  (** shard attempts before it is declared hostile *)
  backoff : float;  (** base of the exponential re-deal delay *)
  journal_dir : string;
  fsync : bool;  (** fsync journals on every checkpoint *)
  log : Svm.Log.t;
      (** peer losses and retries at [Warn], job lifecycle at [Info],
          per-shard dealing at [Debug] *)
  metrics : Svm.Metrics.t option;
      (** the queue's counters; also the base registry of
          {!Proto.Sc_stats} replies, folded with every worker-pushed
          registry (live and departed) *)
  spans : Span.t option;  (** [admit]/[dispatch]/[merge] spans per shard *)
}

val default_config : fingerprint:string -> unit -> config

(** {1 Events and actions} *)

type action =
  | Send of int * Svm.Json.t  (** write this frame to the peer *)
  | Cut of int * string  (** close the peer; the core has forgotten it *)

type event =
  | Accepted of { peer : int; name : string }
      (** a connection under a fresh id; its handshake deadline starts *)
  | Received of { peer : int; bytes : int; frames : Svm.Json.t list }
      (** bytes arrived, completing these frames (maybe none); any
          traffic resets the peer's heartbeat *)
  | Lost of { peer : int; reason : string }
      (** the transport lost the peer: EOF, a reset, a failed write, an
          undecodable or stalled frame, the byte-rate cap *)
  | Tick  (** fire every deadline passed, then deal shards *)
  | Drain  (** stop admitting and dealing; tell clients to resume later *)

type t

val create :
  ?chaos:int * int ->
  config ->
  lookup:(Proto.job -> (Worker.instance, string) result) ->
  now:float ->
  t
(** [lookup] plans submitted jobs; a job it cannot plan (or whose
    planning raises) is rejected. [chaos = (k, n)] cuts the link of the
    worker dealt shard [k], the first [n] times. *)

val handle : t -> now:float -> event -> action list
(** Apply one event at instant [now]. Events for peers the core does not
    know (already cut or lost) change nothing. *)

val next_deadline : t -> now:float -> float option
(** The earliest instant a {!Tick} can change anything: a handshake,
    shard or heartbeat deadline, or a requeued shard's backoff. *)

val in_flight : t -> int
(** Shards dealt and not yet answered, over all jobs. *)

val draining : t -> bool

val shutdown : t -> action list
(** Tell every worker to stop, cut every peer, close every journal. *)

(** {1 A job without a client} *)

type job

val admit :
  t -> now:float -> ?resume:string -> job:Proto.job -> Worker.instance ->
  (job, string) result
(** Register a job directly, fresh or revived from journal [resume] —
    the private fleet's one job, before any peer connects. *)

type fleet_stats = {
  job_id : string;  (** journal id: the [resume] handle *)
  shards : int;
  shard_size : int;
  resumed : int;  (** shards restored from the journal *)
  executed : int;  (** shard results received this run *)
  spawned : int;  (** worker processes forked, replacements included *)
  reassigned : int;  (** shard attempts lost to cut links or dead workers *)
}

val fleet_stats : job -> spawned:int -> fleet_stats

val outcome :
  job -> [ `Running | `Complete of Svm.Json.t option array | `Failed of string ]
(** [`Complete] holds the payload of each shard, [None] past the cut. *)
