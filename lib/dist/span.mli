(** Cross-process spans: the fleet's wall-clock timeline.

    Each fleet process (the serve queue, every remote worker, the
    submitting client) appends {!pspan} records — one compact JSON
    object per line — to its own file, given by the [--spans FILE] CLI
    flag. After the run, [asmsim trace-merge] loads any number of such
    files and fuses them through {!merge} into one Chrome trace, with
    one lane per OS process. Correlation is by (job, shard): the life of
    a shard — admit → dispatch → receive → execute → reply → merge —
    chains across lanes, which is what lets the critical path extend
    across the wire.

    Recording is wall-clock by necessity (the whole point is where real
    time went), which is why spans live in their own side files and
    never touch stdout: the byte-identity discipline of [--connect]
    runs is untouched. *)

type pspan = {
  ps_proc : string;  (** OS-process label, e.g. ["serve"], ["worker-1"] *)
  ps_phase : string;  (** [admit|dispatch|receive|execute|reply|merge] *)
  ps_job : string;  (** job fingerprint digest ({!job_tag}) *)
  ps_shard : int;  (** shard index; [-1] for job-level spans *)
  ps_ts : int;  (** wall-clock µs *)
  ps_dur : int;  (** µs; clamped to at least 1 on export *)
}

type t

val create : proc:string -> oc:out_channel -> t
(** A recorder writing to [oc] (caller closes it); [proc] labels this
    OS process's lane in the merged trace. Each span is flushed as it
    is written, so a SIGKILLed process loses at most one torn line —
    which {!load_file} skips and counts. *)

val now_us : unit -> int
(** Wall-clock microseconds ([Unix.gettimeofday]). *)

val emit :
  t option -> phase:string -> job:string -> shard:int -> start_us:int -> unit
(** Record a span that began at [start_us] and ends now. No-op on
    [None] — producers thread a [t option] exactly like [?metrics]. *)

val job_tag : string -> string
(** Digest (MD5 hex) of a job fingerprint: the short correlation key
    both sides of the wire can compute independently. *)

val load_file : string -> (pspan list * int, string) result
(** Parse a span file: [(spans, skipped)] where [skipped] counts
    unparseable lines (e.g. one torn tail line from a killed process, or
    a record missing a field). [Error] only when the file cannot be read
    at all. *)

val merge : pspan list -> Svm.Json.t
(** A {!Svm.Timeline.chrome} trace over all given spans: one lane per
    distinct [ps_proc] (in first-appearance order, listed in
    [otherData.processes]), timestamps normalized to the earliest span,
    and [otherData.critical_path] the heaviest happens-before chain in
    µs (lane order ∪ (job, shard) order) — the part of the fleet's wall
    time no amount of extra workers can hide. The output passes
    {!Svm.Timeline.validate_chrome}. *)
