(** Length-prefixed JSON frames over file descriptors — the wire layer
    of the job queue's network protocol.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of compact {!Svm.Json}. The layer is hardened for untrusted
    peers: payload size is capped {e before} allocation, an incomplete
    frame can be put on a deadline instead of being waited on forever,
    and every failure mode is a typed [error] — reading never raises
    and never allocates unboundedly, whatever bytes arrive. *)

type error =
  | Closed  (** peer closed cleanly at a frame boundary *)
  | Truncated of int
      (** peer closed mid-frame, with that many bytes of it received *)
  | Oversized of int  (** declared payload length exceeds the cap *)
  | Bad_json of string  (** payload is not a JSON value *)
  | Stalled of int
      (** frame still incomplete past its deadline, with that many
          bytes of it received — a slow-loris peer, not a slow link *)

val pp_error : Format.formatter -> error -> unit

val default_max_len : int
(** Payload cap: 16 MiB. Far above any real shard result (a few KiB),
    far below anything that could OOM the queue. *)

val encode : Svm.Json.t -> bytes
(** The exact bytes {!write} would send — header plus payload. Exposed
    for the chaos harness, which needs to send {e partial} frames. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all fd b off len] writes bytes [off, off + len) of [b],
    looping over short writes and [EINTR]. *)

val write : Unix.file_descr -> Svm.Json.t -> unit
(** Encode and write one frame, looping over short writes. Raises
    [Unix.Unix_error] (e.g. [EPIPE]) if the peer is gone — callers
    ignore SIGPIPE and treat the exception as peer death. *)

(** {1 Blocking reads (worker side)} *)

val read :
  ?max_len:int -> ?timeout:float -> Unix.file_descr -> (Svm.Json.t, error) result
(** Read exactly one frame, blocking until it is complete. With
    [timeout], the whole frame must arrive within that many seconds or
    the read fails with [Stalled] — the worker-side defense against a
    queue (or an impostor) that opens a frame and goes quiet. *)

(** {1 Incremental decoding (queue side)}

    The queue multiplexes many peers under [Unix.select], so it
    cannot block on any one of them: it feeds whatever bytes arrived
    into a per-peer decoder and drains complete frames. *)

type decoder

val decoder : ?max_len:int -> ?stall_timeout:float -> unit -> decoder
(** With [stall_timeout], an incomplete frame older than that many
    seconds makes {!next} fail with [Stalled] — provided the caller
    passes its clock to {!feed} and {!next}. Without it (or without a
    clock) incomplete frames simply wait. *)

val feed : ?now:float -> decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf]. [now] stamps
    the start of a frame for the stall deadline. *)

val next : ?now:float -> decoder -> (Svm.Json.t option, error) result
(** Next complete frame, [Ok None] if more bytes are needed. Drain with
    repeated calls until [Ok None]. [Error] (oversized, bad JSON, or a
    stalled incomplete frame) poisons the stream — the peer is not
    speaking the protocol. *)

val pending : decoder -> int
(** Buffered bytes not yet part of a returned frame — non-zero at EOF
    means the peer died mid-frame. *)
