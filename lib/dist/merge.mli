(** Fold per-shard wire payloads back into final outcomes through the
    exact in-process merge path ({!Svm.Explore.sweep_merge} /
    {!Svm.Explore.merge_plan}).

    Shared by every executor — the private [--dist] fleet, the TCP
    client — so that outcomes are byte-identical to a single-process run no
    matter which transport carried the shards. [payloads.(shard)] is
    the validated payload for that shard, or [None] if it never
    arrived (e.g. past a sweep's finding cut). Payloads are read back
    with {!Worker.decode_sweep} / {!Worker.decode_explore}; missing
    cells, and violating sweep cells, recompute locally, which is
    deterministic either way. *)

val sweep :
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  'a Svm.Explore.sweep_plan ->
  shard_size:int ->
  payloads:Svm.Json.t option array ->
  Svm.Explore.sweep_outcome

val explore :
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  'a Svm.Explore.plan ->
  shard_size:int ->
  payloads:Svm.Json.t option array ->
  'a Svm.Explore.result

type outcome =
  | Sweep_outcome of Svm.Explore.sweep_outcome
  | Explore_outcome of Svm.Univ.t Svm.Explore.result

val instance :
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  Worker.instance ->
  shard_size:int ->
  payloads:Svm.Json.t option array ->
  outcome
(** {!sweep} or {!explore}, whichever the instance's plan calls for. *)
