(** Pure decisions of the job queue: shard sizing, retry/backoff
    schedules, heartbeat edges, client reconnection jitter and per-peer
    byte-rate caps. All functions of plain numbers — unit-testable
    without forking a process. *)

(** {1 Sharding} *)

val shard_size : units:int -> workers:int -> int
(** Default cells per shard: about eight shards per worker, capped at
    256 cells, at least 1. *)

(** {1 Shard retry} *)

val backoff_delay : base:float -> attempt:int -> float
(** Delay before re-dealing a shard that has failed [attempt] times:
    [base * 2^(attempt-1)]; [0.] for [attempt <= 0]. *)

type retry_action =
  | Requeue of float  (** put the shard back, gated by this delay *)
  | Hostile  (** [attempts > max_retries]: abort, never retry forever *)

val retry : max_retries:int -> base:float -> attempts:int -> retry_action

(** {1 Heartbeats} *)

type heartbeat_action =
  | Wait
  | Ping  (** silent past half the timeout and not yet pinged *)
  | Dead  (** silent past the full timeout *)

val heartbeat :
  timeout:float -> silent:float -> pinged:bool -> heartbeat_action

(** {1 Client reconnection} *)

val reconnect_delay :
  base:float -> cap:float -> attempt:int -> rand:float -> float
(** Full-jitter exponential backoff: attempt [k] (0-based) sleeps
    [max 0.1 rand * min cap (base * 2^k)], [rand] uniform in [0,1)
    injected by the caller (tests pin it). *)

(** {1 Byte-rate caps} *)

val rate_check :
  limit_per_s:int ->
  window_start:float ->
  window_bytes:int ->
  arrived:int ->
  now:float ->
  (float * int) * bool
(** Fold [arrived] bytes into the peer's one-second window; returns the
    new [(window_start, window_bytes)] and whether the cap was exceeded
    (kill the peer). A window older than a second closes and the
    arriving bytes open a fresh one — only a burst inside a single
    window trips the cap. *)
