(** Structured, leveled logging: the fleet's diagnostic channel.

    Zero-dependency by design, like {!Metrics}: a logger is a severity
    threshold, a subsystem tag and a sink. Sinks render either the
    human form (["[net] message"], the historical stderr format every
    smoke check greps) or deterministic JSON lines (one compact object
    per record, stable member order, monotone sequence numbers — no
    wall clock, so two identical runs log byte-identically). *)

type level = Debug | Info | Warn | Error

val severity : level -> int
(** [Debug = 0] up to [Error = 3]; a logger emits records whose
    severity is at least its threshold. *)

val level_name : level -> string

type record = {
  seq : int;  (** monotone per logger root, shared across {!sub}s *)
  level : level;
  sub : string;  (** subsystem tag, ["a.b"] after nested {!sub}s *)
  msg : string;
}

val render_human : record -> string
(** ["[sub] msg"] for [Info] (byte-compatible with the pre-logger
    stderr format), ["[sub] level: msg"] otherwise. *)

val render_json : record -> string
(** One compact JSON object: [{"seq":..,"level":..,"sub":..,"msg":..}].
    Deterministic member order; no timestamps. *)

(** {1 Sinks} *)

type sink

val human_sink : (string -> unit) -> sink
(** Feeds {!render_human} of each record to the writer (no newline). *)

val json_sink : (string -> unit) -> sink
(** Feeds {!render_json} of each record to the writer (no newline). *)

(** {1 Loggers} *)

type t

val make : ?level:level -> sink -> t
(** Threshold defaults to [Info]. *)

val null : t
(** Drops everything; the default for library configs. *)

val sub : t -> string -> t
(** A child logger tagged with a subsystem name; shares the parent's
    sink, threshold and sequence counter. *)

val level : t -> level
val enabled : t -> level -> bool
(** False for {!null}; use to skip expensive message construction. *)

val log : t -> level -> string -> unit

val logf : t -> level -> ('a, unit, string, unit) format4 -> 'a

val debugf : t -> ('a, unit, string, unit) format4 -> 'a
val infof : t -> ('a, unit, string, unit) format4 -> 'a
val warnf : t -> ('a, unit, string, unit) format4 -> 'a
val errorf : t -> ('a, unit, string, unit) format4 -> 'a
