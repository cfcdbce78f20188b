(** Event traces: the linearization order of a run, plus the decision log
    that makes the run replayable.

    Each executed operation is one event; the order of events is exactly
    the linearization of the run (operations are atomic steps).

    Separately from events (which may be truncated to a size limit), a
    trace records every {e scheduler decision} — which process was picked
    and whether it crashed — one per scheduler iteration. The decision
    log is never truncated: it is the complete seed of the run, and
    {!Adversary.of_replay} can re-drive the scheduler from it
    bit-for-bit. {!to_replay}/{!parse_replay} serialize it, with optional
    metadata, as a compact replay artifact. *)

type event = { step : int; pid : int; info : Op.info option }
(** [info] is [None] for [Yield] steps and for crash events. *)

type t

val create : ?limit:int -> unit -> t
(** Keeps at most [limit] events (default 100_000); older events are
    dropped, [dropped] reports how many. *)

val add : t -> event -> unit
val events : t -> event list
(** In execution order. *)

val dropped : t -> int
val length : t -> int
val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> t -> unit
(** Prints the kept events; a truncated trace is announced by a leading
    [\[trace truncated: ...\]] line rather than rendered as if it were
    complete. *)

(** {1 Scheduler decisions and replay artifacts} *)

type decision =
  | Sched of int  (** the pid executed (or harvested) one step *)
  | Crash of int  (** the pid was crashed instead *)
  | Omit of int
      (** responsive omission: the pid's next operation hangs forever —
          the process is stuck from this point on, not crashed *)
  | Restart of int
      (** crash-recovery: the pid lost its local program state at this
          step boundary and re-runs its program from the top; shared
          memory survives *)
  | Byz of int
      (** the pid executed one operation with its written/proposed value
          replaced by the adversary's (deterministic, schedule-derived)
          corrupt value *)

val record_decision : t -> decision -> unit
val decisions : t -> decision list
(** In execution order; one per scheduler iteration, never truncated. *)

val decision_count : t -> int

val to_replay : ?meta:(string * string) list -> t -> string
(** Serialize the decision log as a replay artifact. [meta] entries are
    free-form [(key, value)] pairs (keys must be non-empty and contain no
    whitespace or ['=']; values no newlines) recording how to rebuild the
    run — scenario name, model parameters, the violation reproduced. The
    artifact ends with an [end <count>] trailer so truncation is
    detectable. *)

type parse_error = { line : int; message : string }
(** A malformed artifact, pointing at the offending (1-based) line. *)

val pp_parse_error : Format.formatter -> parse_error -> unit

val parse_replay :
  string -> ((string * string) list * decision list, parse_error) result
(** Inverse of {!to_replay}: [(meta, decisions)], or a typed parse error
    with the line number. Rejects unknown lines, bad tokens, and
    truncated artifacts (missing or mismatching [end] trailer).
    Version-1 artifacts (no trailer) are still accepted. *)
