(** What a shard is and what a worker computes for it, independent of
    any transport.

    A job expands into an {!instance} — the same plan on every side,
    since planning is a pure function of the job — and a shard is a
    half-open range of its cells. A shard's payload is the minimal
    plain data the deterministic merge needs: one verdict tag per sweep
    cell, or one seven-int task summary per explore task. This module
    alone knows that format; the queue and the submitting client check
    payloads with {!check_payload}, and {!Merge} reads them back with
    {!decode_sweep} / {!decode_explore}.

    A worker is stateless between shards and owns nothing durable:
    killing one at any instant loses nothing but the in-flight shard,
    which the queue re-deals. *)

type instance =
  | Sweep_instance of Svm.Univ.t Svm.Explore.sweep_plan
  | Explore_instance of Svm.Univ.t Svm.Explore.plan

val cells_of_instance : instance -> int
(** Dispatch units in the instance's plan — what [Nf_job_ok] reports. *)

(** {1 Shards} *)

val shard_count : units:int -> shard_size:int -> int
(** Shards of [shard_size] cells covering [units] cells. *)

val shard_range : units:int -> shard_size:int -> int -> int * int
(** [(lo, hi)]: the cells [lo, hi) of shard [i]. *)

(** {1 Payloads}

    Total decoders: a payload is wire data from an arbitrary peer. *)

val decode_sweep :
  lo:int ->
  hi:int ->
  Svm.Json.t ->
  (Svm.Explore.verdict option array, string) result
(** One entry per cell of [lo, hi): its verdict, or [None] for a
    violating cell, which the merge re-runs to recover the violation. *)

val decode_explore :
  lo:int ->
  hi:int ->
  Svm.Json.t ->
  (Svm.Explore.task_summary array, string) result
(** One summary per task of [lo, hi): leaf, runs, truncated, cex,
    pruned states, pruned commutes, exhausted. *)

val check_payload :
  instance -> lo:int -> hi:int -> Svm.Json.t -> (int option, string) result
(** Validate a payload for cells [lo, hi) of the instance's plan.
    [Ok (Some i)] is the absolute index of the first merge-stopping
    finding inside the shard: a violating sweep cell, or an explore
    task that found a counterexample or hit its budget. *)

(** {1 Computing} *)

val compute_shard :
  instance -> lo:int -> hi:int -> tick:(unit -> unit) -> Svm.Json.t
(** Compute the payload for cells [lo, hi). [tick ()] fires every few
    cells so the caller can answer its own control channel mid-shard
    (it may raise to abandon the shard). *)
