(** Trace timelines: convert a recorded {!Trace.t} into loadable
    profiles — Chrome [trace_event] JSON (one track per process, one
    span per operation, instant markers for faults), plain text, or CSV
    — plus a causality pass deriving happens-before order and the run's
    critical path.

    The happens-before relation is the union of program order (spans of
    one pid) and per-object access order (operations are atomic, so the
    trace's linearization order per instance is exactly the order they
    took effect). With every span costing one step, the longest chain is
    the minimum number of {e sequential} steps any schedule of this run
    must spend — the measurable face of the step-complexity claims. *)

type span = {
  step : int;  (** global step (one scheduler iteration = 1 time unit) *)
  pid : int;
  info : Op.info;
  corrupted : bool;  (** executed under a Byzantine value fault *)
}

type fault = Crash | Omit | Restart

type instant = { step : int; pid : int; fault : fault }

type t = {
  spans : span list;  (** in step order *)
  instants : instant list;  (** fault markers, in step order *)
  nprocs : int;
  dropped : int;  (** events lost to trace truncation ({!Trace.dropped}) *)
  decisions : int;
}

val of_trace : ?nprocs:int -> Trace.t -> t
(** Build a timeline from a recorded trace. Fault kinds come from the
    decision log (never truncated); [nprocs] overrides the inferred
    process count (max pid + 1) when the run has silent processes. *)

val fault_name : fault -> string

(** {1 Causality} *)

type hot_instance = {
  instance : string;
  accesses : int;
  distinct_pids : int;  (** contention: how many processes touched it *)
  on_critical_path : int;
      (** spans whose happens-before depth ran through this instance *)
}

type causality = {
  span_count : int;
  critical_path : int;  (** longest happens-before chain, in steps *)
  parallelism : float;  (** span_count / critical_path *)
  hot : hot_instance list;  (** by accesses, descending; bounded *)
}

val causality : ?top:int -> t -> causality
(** [top] bounds the hottest-instances list (default 8). *)

val longest_chain :
  lane:('a -> 'l) -> chain:('a -> 'c) -> cost:('a -> int) -> 'a list ->
  int * (int * int) list
(** The happens-before DP behind every critical path. Items are taken in
    order; an item's depth is its [cost] plus the deeper of the last
    item on its [lane] (program order) and the last on its [chain]
    (access order). Returns the deepest depth and, per item, the depths
    of its lane and chain predecessors (0 when it has none). *)

(** {1 Exports} *)

type complete = {
  tid : int;  (** lane *)
  ts : int;
  dur : int;
  name : string;
  args : (string * Json.t) list;
  cname : string option;  (** colour name, e.g. ["terrible"] *)
}
(** One ["X"] complete event of a Chrome trace. *)

val chrome :
  lanes:string list -> ?instants:instant list -> ?dropped:int ->
  ?decisions:int -> critical_path:int -> ?meta:(string * string) list ->
  complete list -> Json.t
(** The Chrome [trace_event] document (load in chrome://tracing or
    Perfetto): thread-name metadata naming lane [i] after the [i]th of
    [lanes], the complete events in the given order, one ["i"] instant
    per fault. [otherData] carries the lane, span and instant counts,
    [dropped] (default 0), [decisions] (default 0), [critical_path] and
    any extra [meta] strings — a truncated trace is thereby
    {e annotated}, never silently completed. *)

val to_chrome : ?meta:(string * string) list -> t -> Json.t
(** {!chrome} over all [nprocs] tracks: one event per span ([ts] =
    step, [dur] = 1), corrupted spans shaded ["terrible"]. *)

val to_text : t -> string
(** Human timeline plus the causality summary and hottest-instances
    table; truncation is flagged in the header. *)

val to_csv : t -> string
(** [step,pid,event,kind,instance,corrupted] rows; truncation becomes a
    leading comment line. *)

(** {1 Validation} *)

type chrome_summary = {
  events : int;
  spans_per_pid : (int * int) list;
  instants : int;
  recorded_faults : int;
  dropped : int;
}

val validate_chrome : Json.t -> (chrome_summary, string) result
(** The CI-side check of a Chrome export: structurally well-formed
    events, instant count matching [otherData], and — on untruncated
    traces — at least one span for every live (never-faulted) pid. *)
