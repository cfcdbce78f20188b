(** Run telemetry: a zero-dependency metrics registry.

    Counters (monotone), gauges (last value, with a max-tracking
    setter), and log-bucketed histograms, all addressed by name and
    snapshottable to JSON.

    {b Determinism rule.} Everything recorded here must derive from the
    run itself — step counts, op counts, outcomes — never from
    wall-clock time. Two replays of the same artifact then produce
    byte-identical snapshots ({!snapshot_string} sorts names). Wall
    time is available only behind the explicit [wall_clock] flag, which
    appends a separate ["wall"] section; registries used in replay
    comparisons must leave it off.

    Telemetry is pay-for-what-you-use: nothing in this module is
    consulted unless a registry is created and passed to a producer
    (e.g. {!Exec.run}'s [?metrics]); producers allocate no per-op state
    when no registry is given. *)

type t

val create : ?wall_clock:bool -> unit -> t
(** A fresh, empty registry. [wall_clock] (default false) opts into the
    non-deterministic ["wall"] snapshot section. *)

val wall_clock : t -> bool

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Find-or-create; the same name always yields the same counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : t -> string -> int
(** 0 when the counter was never created. *)

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** Keep the maximum of the current and given value. *)

val gauge_value : t -> string -> int

(** {1 Optional-registry conveniences}

    For producers whose instrumentation hangs off a [?metrics] that is
    usually [None] — the network service counts connections, retries
    and queue depth this way without forcing every caller to thread a
    registry. *)

val bump : ?by:int -> t option -> string -> unit
(** Increment a counter by name; no-op on [None]. *)

val record : t option -> string -> int -> unit
(** Set a gauge by name; no-op on [None]. *)

val sample : t option -> string -> int -> unit
(** Observe into a histogram by name; no-op on [None]. *)

(** {1 Histograms}

    Log-bucketed: bucket 0 holds values [<= 0]; bucket [i >= 1] holds
    [\[2^(i-1), 2^i)]. 63 buckets cover every OCaml int. *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit
val histogram_count : t -> string -> int
val histogram_sum : t -> string -> int

val bucket_of : int -> int
(** The bucket index a value lands in. *)

val bucket_lo : int -> int
(** Smallest positive value of bucket [i] ([0] for bucket 0). *)

(** {1 Snapshots} *)

val counters : t -> (string * int) list
(** Name-sorted. *)

val gauges : t -> (string * int) list
(** Name-sorted. *)

val histograms : t -> (string * ((int * int) * (int * int) * (int * int) list)) list
(** Name-sorted [(name, ((count, sum), (min, max), bucket_counts))];
    bucket counts are [(bucket_index, count)] for non-empty buckets. *)

val snapshot : t -> Json.t
(** Deterministic: all sections sorted by name; the ["wall"] section is
    present only for [wall_clock] registries. *)

val snapshot_string : ?pretty:bool -> t -> string

val of_snapshot : Json.t -> (t, string) result
(** Decode a {!snapshot} back into a registry (the ["wall"] section is
    ignored; the result is never wall-clock). Round-trips byte-for-byte:
    [snapshot (of_snapshot (snapshot t)) = snapshot t] for wall-free
    registries. This is how a server rebuilds worker registries pushed
    over the wire before folding them with {!merge}. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counters and histograms add (count, sum,
    buckets; min/max combine), gauges keep the maximum. Commutative and
    associative, so merging per-worker registries in any order yields
    the same snapshot — parallel sweeps rely on this to match the
    sequential registry byte for byte. *)

val reset : t -> unit
