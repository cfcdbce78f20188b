(** A zero-dependency multicore pool over stdlib [Domain], in two
    flavours: an indexed task farm ({!with_farm}, {!run_in} and the
    one-round {!run}) for pre-sliced work, and a work-stealing pool
    ({!run_dynamic}) for work that splits as it runs.

    Neither pool promises anything about the order work runs in.
    Callers needing deterministic output must make per-item results
    order-independent and merge canonically ({!Explore} merges in
    task-index order under {!run}, and relies on a closure argument —
    the set of expanded states is schedule-independent — under
    {!run_dynamic}).

    Must not be called from inside one of its own workers: a task must
    not call {!run_in} on the farm running it. *)

(** {1 Indexed task farm} *)

type farm
(** A set of domains that outlives one round of tasks: its helper
    domains are spawned once, by the first {!run_in} that needs them,
    and parked between rounds, so a caller running many rounds spawns
    no domain per round. *)

val with_farm : jobs:int -> ?oversubscribe:bool -> (farm -> 'a) -> 'a
(** [with_farm ~jobs k] runs [k farm] with a farm of up to [jobs]
    domains (the caller counts as one) and joins the farm's helper
    domains when [k] returns or raises. [jobs] is capped at
    [Domain.recommended_domain_count ()] — extra domains on a saturated
    machine only add GC synchronisation — unless [oversubscribe] is set
    (default false; meant for tests that must exercise the multi-domain
    paths on any host). With [jobs = 1] no domain is ever spawned. *)

val run_in :
  farm -> ?skip:(int -> bool) -> tasks:int -> (int -> 'a) -> 'a option array
(** [run_in farm ~tasks f] evaluates [f i] for each [i] in
    [0 .. tasks-1] on the farm's domains and returns the results
    slot-per-task. A slot is [None] iff the task was skipped: [skip i]
    is consulted when the task is claimed — use it with an [Atomic.t]
    bound for cooperative early abort.

    [tasks = 0] returns the empty array; if [skip] admits no task at
    entry, the all-[None] array is returned without waking or spawning
    a domain.

    If a task raises, workers stop claiming new tasks and the exception
    with the smallest task index is re-raised after every domain has
    left the round, so the propagated exception does not depend on
    worker timing; the farm stays good for the next round. Raises
    [Invalid_argument] when called from a task of the farm's own
    round. *)

val run :
  jobs:int ->
  ?oversubscribe:bool ->
  ?skip:(int -> bool) ->
  tasks:int ->
  (int -> 'a) ->
  'a option array
(** [run ~jobs ~tasks f] is {!run_in} on a farm of [min jobs tasks]
    domains opened for this one round ({!with_farm}). *)

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
    {!with_farm} unless [oversubscribe].

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
(** The effective worker count after capping. *)

val steals : 'w t -> int
(** Items obtained by stealing so far (total across workers). Timing-
    dependent; read it after {!run_dynamic} returns for reporting. *)
