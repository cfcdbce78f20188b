(** A zero-dependency multicore pool over stdlib [Domain], in two
    flavours: an indexed task farm ({!run}) for pre-sliced work, and a
    work-stealing pool ({!run_dynamic}) for work that splits as it
    runs.

    Both run as rounds on one process-wide farm of domains. Its helper
    domains are spawned by the first round that needs them and parked
    between rounds, so a process making many calls spawns no domain per
    call (in OCaml 5 each domain spawned and joined grows the major
    heap). The farm is sized by the round using it: a round of another
    size joins the old helpers and spawns new ones, and the farm is
    joined at exit. A farm larger than
    [Domain.recommended_domain_count ()] (only [oversubscribe] makes
    one) is joined when its round ends: parked domains still take part
    in every stop-the-world GC. A call made while the farm is busy — from inside
    one of its tasks, or from another thread — runs on its caller
    alone, with the same results.

    Neither pool promises anything about the order work runs in.
    Callers needing deterministic output must make per-item results
    order-independent and merge canonically ({!Explore} merges in
    task-index order under {!run}, and relies on a closure argument —
    the set of expanded states is schedule-independent — under
    {!run_dynamic}). *)

(** {1 Indexed task farm} *)

val run :
  jobs:int ->
  ?oversubscribe:bool ->
  ?skip:(int -> bool) ->
  tasks:int ->
  (int -> 'a) ->
  'a option array
(** [run ~jobs ~tasks f] evaluates [f i] for each [i] in
    [0 .. tasks-1] on [min jobs tasks] domains (the caller counts as
    one) and returns the results slot-per-task. [jobs] is capped at
    [Domain.recommended_domain_count ()] — extra domains on a saturated
    machine only add GC synchronisation — unless [oversubscribe] is set
    (default false; meant for tests that must exercise the multi-domain
    paths on any host). With one domain, the tasks run in index order
    on the caller and no domain is spawned or woken.

    A slot is [None] iff the task was skipped: [skip i] is consulted
    when the task is claimed — use it with an [Atomic.t] bound for
    cooperative early abort. [tasks = 0] returns the empty array; if
    [skip] admits no task at entry, the all-[None] array is returned
    without waking or spawning a domain.

    If a task raises, workers stop claiming new tasks and the exception
    with the smallest task index is re-raised after every domain has
    left the round, so the propagated exception does not depend on
    worker timing; the farm stays good for the next call. *)

(** {1 Work-stealing pool} *)

type 'w t
(** A running pool of work-stealing deques, passed to the worker
    function so it can split ({!push}) and probe saturation
    ({!want_work}). After {!run_dynamic} returns, the handle is inert
    and only good for reading {!steals}. *)

val run_dynamic :
  jobs:int ->
  ?oversubscribe:bool ->
  roots:'w list ->
  ('w t -> worker:int -> 'w -> unit) ->
  'w t
(** [run_dynamic ~jobs ~roots f] seeds worker 0's deque with [roots]
    and runs [f pool ~worker item] for every item until global
    quiescence (no queued items, none executing). Each worker owns a
    bounded Chase-Lev-style deque — the owner pushes and pops LIFO at
    the bottom, idle workers steal FIFO from a random victim's top —
    so with [jobs = 1] and a single root the items run in exact
    depth-first order and no domain is spawned. [jobs] is capped like
    {!run} unless [oversubscribe]. When the farm is busy the caller
    runs every item alone, as with [jobs = 1].

    [f] may call {!push} to add work and {!want_work} to learn whether
    any sibling is starving (the explorer's split heuristic). If [f]
    raises, the first exception (by wall clock — pair it with your own
    abort flag if you need a deterministic winner) is re-raised after
    every worker drains; remaining items are discarded unexecuted. *)

val push : 'w t -> worker:int -> 'w -> bool
(** [push pool ~worker w] queues [w] on [worker]'s own deque (call it
    only from that worker). [false] if the deque is full — the caller
    then keeps the work and runs it inline. *)

val want_work : 'w t -> bool
(** True when some worker is currently hunting for a steal — the cue to
    split off shareable work. Always false when [jobs = 1]. *)

val jobs : 'w t -> int
(** The worker count the pool ran with: [jobs] after capping, or 1 when
    the farm was busy. *)

val steals : 'w t -> int
(** Items obtained by stealing so far (total across workers). Timing-
    dependent; read it after {!run_dynamic} returns for reporting. *)
