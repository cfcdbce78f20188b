(** What a worker computes, independent of any transport.

    A job expands into an {!instance} — the same plan on every side,
    since planning is a pure function of the job — and a shard is a
    half-open range of its cells. A worker is stateless between shards
    and owns nothing durable: killing one at any instant loses nothing
    but the in-flight shard, which the queue re-deals. *)

type instance =
  | Sweep_instance of Svm.Univ.t Svm.Explore.sweep_plan
  | Explore_instance of Svm.Univ.t Svm.Explore.plan

val cells_of_instance : instance -> int
(** Dispatch units in the instance's plan — what [Nf_job_ok] reports. *)

val compute_shard :
  instance -> lo:int -> hi:int -> tick:(int -> unit) -> Svm.Json.t
(** Compute the wire payload for cells [lo, hi): the verdict-tag string
    of a sweep or the summary list of an explore. Transport-free —
    [tick completed] fires every few cells so the caller can emit
    progress heartbeats and poll its own control channel (it may raise
    to abandon the shard). *)
