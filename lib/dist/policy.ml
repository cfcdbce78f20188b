(* Pure scheduling and failure-handling decisions of the job queue.
   Everything here is a function of plain numbers so the schedules are
   unit-testable without forking a single process. *)

(* {2 Sharding} *)

let shard_size ~units ~workers =
  let workers = max 1 workers in
  if units = 0 then 1
  else min 256 (max 1 ((units + (workers * 8) - 1) / (workers * 8)))

(* {2 Shard retry} *)

let backoff_delay ~base ~attempt =
  if attempt <= 0 then 0. else base *. (2. ** float_of_int (attempt - 1))

type retry_action = Requeue of float | Hostile

let retry ~max_retries ~base ~attempts =
  if attempts > max_retries then Hostile
  else Requeue (backoff_delay ~base ~attempt:attempts)

(* {2 Heartbeats} *)

type heartbeat_action = Wait | Ping | Dead

let heartbeat ~timeout ~silent ~pinged =
  if silent > timeout then Dead
  else if (silent > timeout /. 2.) && not pinged then Ping
  else Wait

(* {2 Client reconnection} *)

(* Full-jitter exponential backoff: attempt [k] (0-based) sleeps a
   uniform fraction of [min cap (base * 2^k)]. [rand] is the caller's
   uniform [0,1) draw, injected so tests can pin it. *)
let reconnect_delay ~base ~cap ~attempt ~rand =
  let rand = Float.min 1. (Float.max 0. rand) in
  let ceiling = Float.min cap (base *. (2. ** float_of_int attempt)) in
  ceiling *. Float.max 0.1 rand

(* {2 Byte-rate caps} *)

(* One-second windows: a peer that shoves more than [limit_per_s] bytes
   inside any single window blows the cap. A window older than a second
   is closed and the arriving bytes open a fresh one — an over-limit
   total spread over many seconds is fine, a burst inside one is not. *)
let rate_check ~limit_per_s ~window_start ~window_bytes ~arrived ~now =
  if now -. window_start >= 1.0 then ((now, arrived), arrived > limit_per_s)
  else
    let window_bytes = window_bytes + arrived in
    ((window_start, window_bytes), window_bytes > limit_per_s)
