(** Bounded exhaustive exploration of schedules (a small model checker).

    Random sweeps sample the schedule space; for the small agreement
    objects at the heart of the paper we can do better and enumerate
    {e every} interleaving (and every crash placement) up to a depth
    bound, so safety properties hold for all schedules within scope, not
    just the sampled ones.

    The explorer branches, at every step, over which live process
    executes its next operation and — if the crash budget allows — over
    crashing a process instead. The engine explores copy-free: one
    environment is mutated in place and rolled back through an undo
    journal ({!Env.checkpoint}/{!Env.rollback}) when backtracking, and
    two prunings cut the tree without changing what it proves:

    - {b state-fingerprint deduplication} — a key of the canonical
      store ({!Env.canonical}, maintained incrementally step by step),
      each process's op-result history (a stand-in for its
      continuation, interned to one integer), the crash order and the
      remaining depth budget; a revisited key re-proves nothing and is
      skipped ([pruned_states]);
    - {b sleep-set commutation} — two enabled operations touching
      different instances (or only reading the same one) commute, so
      only one order of each commuting pair is explored
      ([pruned_commutes]).

    Both prunings preserve the set of {e run records} reachable up to
    reordering of commuting steps. They are sound for properties that
    are functions of the run record only — outcomes, crash list,
    truncation — and do {b not} inspect [schedule] (the one field that
    distinguishes equivalent interleavings). Pass [~dedup:false] to get
    the plain full enumeration.

    Requirement: programs must be {e closed} — all their state lives in
    the environment or in the continuation, never in captured mutable
    refs (all the object protocols of this repository qualify; the BG
    simulator processes do not, as their simulator state is in refs).
    Oracle handlers must likewise be pure functions of [(pid, query)] —
    every handler in this repository is — since the dedup key tracks
    only the per-process query counts, not handler closure state.

    Runs that exceed [max_steps] are reported with [Blocked] outcomes for
    the still-running processes; the property is consulted on them too,
    so use properties that are safety-only on truncated runs (e.g.
    "decided values agree", not "everyone decided") or inspect
    [truncated]. *)

type 'a run = {
  outcomes : 'a Exec.outcome array;
  crashed : int list;
  truncated : bool;  (** hit [max_steps] with processes still running *)
  schedule : string;  (** human-readable choice sequence *)
}

type 'a result = {
  explored : int;  (** complete runs checked *)
  counterexample : ('a run * string) option;  (** run + property failure *)
  exhausted_budget : bool;
      (** stopped early because [max_runs] was reached — coverage is then
          partial, like a random sweep *)
  pruned_states : int;
      (** subtrees skipped because their root state was already visited *)
  pruned_commutes : int;
      (** transitions skipped by the sleep-set commutation rule *)
  pruned_source : int;
      (** transitions skipped by the refined (state-conditional)
          commutation rules — sleep entries that only survived a filter
          because, at the state in question, two same-instance
          operations commute (sibling snapshot writes, equal register
          writes, a won test&set, ...). Always [0] from the plan engine,
          which uses the coarse relation. *)
}

val exhaustive :
  ?max_crashes:int ->
  ?max_runs:int ->
  ?metrics:Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?dedup:bool ->
  max_steps:int ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  property:('a run -> (unit, string) Stdlib.result) ->
  unit ->
  'a result
(** [exhaustive ~max_steps ~make ~property ()] enumerates schedules
    depth-first. [make] builds a fresh environment and programs (called
    once per engine pass — see below). Defaults: [max_crashes = 0],
    [max_runs = 2_000_000], [jobs = 1], [dedup = true].

    {b One traversal, two configurations.} Both engines run the same
    depth-first traversal — the same branch order, visited key,
    terminal rule and undo journal — and differ only in what they plug
    into it. The first pass runs engine C: one {!Visited} table shared
    by all [jobs] domains (a state fingerprinted anywhere is never
    re-expanded anywhere), subtree items split off dynamically whenever
    a sibling domain is starving ({!Par.run_dynamic}), and sleep-set
    pruning upgraded with state-conditional commutation rules toward
    source sets ([pruned_source]). If that pass runs clean — no
    counterexample, budget untouched, no exception — its result is
    returned: by the closure argument (DESIGN §14) the expanded-state
    set, and hence [explored], every pruned count and every
    deterministic metric, is a function of the reachable state graph
    alone, identical at {e every} job count and steal schedule. The
    moment a counterexample, the [max_runs] budget, or an exception
    enters the picture, the pass aborts, discards everything (no
    metrics recorded), and defers to the plan engine — the traversal
    with task-private tables and the coarse commutation relation,
    sliced at a fixed frontier, fanned out by index and merged strictly
    in order (the machinery {!plan}/{!task_outcome}/{!merge_plan}
    expose to [Dist]) — whose merge defines the documented semantics:
    the DFS-first counterexample, the sequential budget behaviour, the
    original exception. Either way the verdict is byte-identical for
    every value of [jobs].

    [dedup:false] disables the visited table and both sleep-set tiers —
    the engine then enumerates exactly the runs of the naive
    copy-per-branch DFS the test suite keeps as its oracle: same
    [explored], same verdict, same counterexample [schedule].

    [metrics] counts completed runs ([explore.runs]), truncated runs
    ([explore.truncated]), counterexamples found, the three pruning
    tallies ([explore.pruned_states], [explore.pruned_commutes],
    [explore.pruned_source]) and the shared-table traffic
    ([explore.visited.hits]/[explore.visited.misses]) — all
    deterministic. Timing-dependent tallies (steals, splits, per-domain
    breakdowns) are recorded only into wall-clock registries ({!Metrics.create}'s [wall_clock]), so
    snapshot-compared runs stay byte-identical. [on_progress ~runs]
    fires from the calling domain — heartbeat timing is not part of
    the determinism contract. *)

val exhaustive_plan :
  ?max_crashes:int ->
  ?max_runs:int ->
  ?metrics:Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?dedup:bool ->
  max_steps:int ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  property:('a run -> (unit, string) Stdlib.result) ->
  unit ->
  'a result
(** The plan engine alone: phase-A frontier slicing, indexed fan-out
    over {!Par.run}, strict in-order merge — exactly what {!exhaustive}
    falls back to, and what the [Dist] job queue distributes. Exposed
    so the fallback's cost can be timed on its own (the benchmark's
    fallback probe) and so tests can hold it to the oracle with
    [dedup:false]; [pruned_source] is always [0] here. *)

(** {1 Systematic fault-box sweeping}

    Where {!exhaustive} branches over every interleaving (and so only
    scales to a dozen steps), the sweeper keeps complete runs cheap and
    enumerates the {e fault dimension} systematically: every set of at
    most [max_faults] victims × every fault kind in [kinds] × every
    per-victim op-index below [op_window] × every scheduler, each run
    under online monitors ({!Exec.run}'s [monitors]). This replaces
    sampling faults at random: within the swept box, absence of
    violations is a fact, not a statistic. *)

type fault_point = {
  victim : int;
  op : int;  (** local op-index, as [Adversary.Crash_at_local] trigger *)
  kind : Adversary.fault_kind;
}

type fault_schedule = { scheduler : string; faults : fault_point list }

val pp_fault_point : Format.formatter -> fault_point -> unit
val pp_fault_schedule : Format.formatter -> fault_schedule -> unit

type found = {
  fault : fault_schedule;  (** as first encountered by the sweep *)
  shrunk : fault_schedule;  (** after delta-debugging *)
  violation : Monitor.violation;
      (** the violation of the {e shrunk} schedule's run, trace included *)
  shrink_runs : int;  (** re-runs the shrinker spent *)
  replay : string;
      (** replay artifact of the shrunk run ({!Trace.to_replay}), with
          the violation recorded in its metadata *)
}

type sweep_outcome = {
  runs : int;
  found : found option;
  deadlock : fault_schedule option;
      (** first schedule, if any, under which {e every} process halted
          without deciding (all crashed or stuck, at least one stuck) —
          a typed finding of the omission tier, not a checker failure;
          the sweep continues past it *)
  exhausted : bool;  (** hit [max_runs] before covering the box *)
}

type verdict = Clean | Deadlocked | Violating of Monitor.violation

(** The sweep and the soak driver ([Experiments.Soak]) share the three
    decisions below — which adversary a fault schedule denotes, which
    verdict a run earns, what a finding's replay artifact holds — so a
    schedule judged by one is judged the same by the other. *)

val fault_adversary : Adversary.t -> fault_point list -> Adversary.t
(** [fault_adversary base faults] layers [faults] over the scheduling
    policy [base] ({!Adversary.with_faults}, each point an
    [Adversary.Crash_at_local] trigger). *)

val judge :
  ?budget:int ->
  ?record_trace:bool ->
  monitors:'a Monitor.t list ->
  env:Env.t ->
  adversary:Adversary.t ->
  'a Prog.t array ->
  verdict
(** Run [progs] on [env] under [adversary] and [monitors]
    ({!Exec.run}) and classify the run: [Violating] when a monitor
    fires, [Deadlocked] when every process halted without deciding
    (all crashed or stuck, at least one stuck) or the adversary found
    nobody to run, [Clean] otherwise. Defaults: [budget = 20_000],
    [record_trace = false]. The caller owns [env]: a fresh one per run,
    or one journaled arena rolled back around each run
    ({!Env.with_rollback}). *)

val run_fault :
  ?budget:int ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  monitors:(unit -> 'a Monitor.t list) ->
  scheduler:(unit -> Adversary.t) ->
  fault_point list ->
  verdict
(** {!judge} one run under one fault schedule, on a fresh environment
    and programs from [make]. The run records a trace, so a [Violating]
    verdict carries it — what shrinking and replay artifacts are built
    from. Sweep cells ({!sweep_cell}) run the same schedule untraced. *)

val default_schedulers : nprocs:int -> (string * (unit -> Adversary.t)) list
(** Round-robin, both priority orders, and two seeded random policies —
    fresh adversaries per call, as scheduling state is per-run. *)

val sweep_faults :
  ?kinds:Adversary.fault_kind list ->
  ?max_faults:int ->
  ?op_window:int ->
  ?max_runs:int ->
  ?budget:int ->
  ?schedulers:(string * (unit -> Adversary.t)) list ->
  ?meta:(string * string) list ->
  ?metrics:Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  ?jobs:int ->
  ?oversubscribe:bool ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  monitors:(unit -> 'a Monitor.t list) ->
  unit ->
  sweep_outcome
(** Sweep the product fault box until a monitor violation is found or
    the box (or [max_runs]) is exhausted. The first violating schedule
    is shrunk — fault points dropped, kinds weakened toward crash-stop,
    op-indices pulled toward 0, scheduler collapsed toward round-robin,
    each candidate validated by a re-run — and serialized as a replay
    artifact extended with [meta]. Defaults: [kinds = \[Crash_stop\]],
    [max_faults = 1], [op_window = 6], [max_runs = 5_000], per-run
    [budget = 20_000] steps, [schedulers = default_schedulers],
    [jobs = 1].

    {b Parallelism and determinism.} Each (scheduler, fault-set) cell is
    one independent run — fresh environment, programs, monitors and
    adversary — so runs execute concurrently on [jobs] domains and
    verdicts are read back in sweep order. The reported outcome, the
    found/shrunk schedules, the replay artifact and every [metrics]
    increment are identical for every value of [jobs]; shrinking always
    happens sequentially after the merge. Only [on_progress] timing
    differs (fired per run live when [jobs = 1], at merge otherwise) —
    heartbeat timing is not part of the determinism contract.

    [make] must build a fresh environment {e and fresh programs} per
    call (it is called once per run); [monitors] likewise builds fresh
    monitors.

    [metrics] tallies runs per verdict ([sweep.runs],
    [sweep.verdict.clean/deadlocked/violating]) and the shrinker's
    validation re-runs ([sweep.shrink_runs]); [on_progress ~runs] is
    the sweep's heartbeat, fired once per run so long sweeps are never
    silent. *)

val shrink :
  ?budget:int ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  monitors:(unit -> 'a Monitor.t list) ->
  schedulers:(string * (unit -> Adversary.t)) list ->
  fault_schedule ->
  Monitor.violation ->
  fault_schedule * Monitor.violation * int
(** Delta-debug a known-violating fault schedule down to a minimal one;
    returns the shrunk schedule, the violation of the shrunk schedule's
    run, and the number of validation re-runs. The schedule's
    [scheduler] must name an entry of [schedulers] (resolved once up
    front, [Invalid_argument] otherwise); the violation passed in is
    the one its own run produced. *)

val finding :
  ?budget:int ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  monitors:(unit -> 'a Monitor.t list) ->
  schedulers:(string * (unit -> Adversary.t)) list ->
  meta:(string * string) list ->
  fault_schedule ->
  found
(** Build the finding of a schedule an untraced run judged [Violating]:
    re-run it traced ({!run_fault}), {!shrink} from that run's
    violation, and serialize the shrunk run's trace as a replay
    artifact whose metadata is [meta] followed by [monitor], [message],
    [step], [pid] and the shrunk [schedule]. The traced re-run is not
    counted in [shrink_runs]. [Invalid_argument] if the schedule's
    scheduler is not in [schedulers], or if the re-run does not violate
    (the programs are not deterministic). *)

val replay :
  ?budget:int ->
  ?metrics:Metrics.t ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  monitors:(unit -> 'a Monitor.t list) ->
  Trace.decision list ->
  ('a Exec.result, Monitor.violation) Stdlib.result
(** Re-execute a recorded decision log ({!Adversary.of_replay}) under
    fresh monitors: [Error] iff the replayed run violates again, with
    the same step and message when the programs are unchanged.
    [metrics] is handed to {!Exec.run} — replaying one artifact twice
    into two fresh registries snapshots byte-identically. *)

(** {1 Sharding hooks}

    {!exhaustive} and {!sweep_faults} are thin compositions of three
    stages exposed here so other executors — in particular the
    multi-process job queue in [Dist] — can run the middle stage
    elsewhere while sharing the first and last verbatim:

    + {b plan}: slice the work into indexed units (frontier tasks, or
      sweep cells). Planning is a deterministic function of the
      parameters alone — two processes given the same parameters build
      the same plan, so an index fully identifies a unit of work across
      a process boundary.
    + {b execute}: run units by index, anywhere, in any order, any
      number of times ({!task_outcome} and {!sweep_cell} are
      deterministic and re-runnable — the property a job queue leans
      on when a worker dies mid-shard and the shard is reassigned).
    + {b merge}: fold outcomes strictly in index order. All cut-offs
      (budget, first counterexample) and all [metrics] accounting
      happen here, from plain-data summaries, so the merged outcome is
      a pure function of the plan — identical for in-process domains,
      worker processes, or any mix, at any concurrency. *)

type 'a plan
(** A sliced exploration: frontier tasks in DFS order plus the merge
    parameters. *)

val plan :
  ?max_crashes:int ->
  ?max_runs:int ->
  ?dedup:bool ->
  max_steps:int ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  property:('a run -> (unit, string) Stdlib.result) ->
  unit ->
  'a plan
(** Phase A of {!exhaustive}: walk the tree to a fixed frontier depth
    of 3 and capture tasks. Same defaults as {!exhaustive}. The tasks do not
    depend on [max_runs] (a subtree can yield no run at all, so no
    task count bounds the runs still needed); only the merge and each
    task's own run cap do. *)

val plan_tasks : 'a plan -> int
(** Number of tasks in the plan. *)

type task_summary = {
  ts_leaf : bool;  (** resolved during planning, above the frontier *)
  ts_runs : int;
  ts_truncated : int;
  ts_cex : bool;  (** this task found the (DFS-first) counterexample *)
  ts_pruned_states : int;
  ts_pruned_commutes : int;
  ts_exhausted : bool;  (** hit the per-task run cap *)
}
(** Plain-data result of one task — everything the merge needs except
    the counterexample record itself, and exactly what [Dist] workers
    ship over the wire. *)

val task_outcome : 'a plan -> int -> task_summary * ('a run * string) option
(** Execute task [i]: its summary, plus the full counterexample when
    [ts_cex]. Deterministic and re-runnable — subtrees never consume
    their captured root state. *)

val merge_plan :
  ?metrics:Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  'a plan ->
  outcome_of:(int -> task_summary * ('a run * string) option) ->
  'a result
(** Fold task outcomes in task order into a {!result} — the exact merge
    {!exhaustive} performs. [outcome_of] is consulted once per task, in
    order, until a cut-off; if it returns [ts_cex = true] with no
    counterexample record (a summary from a remote worker), the merge
    recovers the record by re-running that task locally. *)

type 'a sweep_plan
(** A sliced fault sweep: the scheduler × fault-set grid in sweep order
    plus the merge parameters. *)

val sweep_plan :
  ?kinds:Adversary.fault_kind list ->
  ?max_faults:int ->
  ?op_window:int ->
  ?max_runs:int ->
  ?budget:int ->
  ?schedulers:(string * (unit -> Adversary.t)) list ->
  ?meta:(string * string) list ->
  make:(unit -> Env.t * 'a Prog.t array) ->
  monitors:(unit -> 'a Monitor.t list) ->
  unit ->
  'a sweep_plan
(** Enumerate the sweep grid. Same defaults as {!sweep_faults}. *)

val sweep_cells : 'a sweep_plan -> int
(** Number of cells actually dispatched: the grid size capped at
    [max_runs]. *)

val sweep_cell : 'a sweep_plan -> int -> verdict
(** Run cell [i] (fresh environment, programs, monitors, adversary).
    Deterministic and re-runnable. The run records no trace: a
    [Violating] verdict's violation has [trace = None], and
    {!sweep_merge} re-derives the one trace it needs. *)

val sweep_cell_schedule : 'a sweep_plan -> int -> fault_schedule
(** The (scheduler, fault-set) pair of cell [i], for display. *)

val sweep_merge :
  ?metrics:Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  'a sweep_plan ->
  verdict_of:(int -> verdict) ->
  sweep_outcome
(** Fold per-cell verdicts in sweep order into a {!sweep_outcome} — the
    exact merge {!sweep_faults} performs, including the first
    violation's {!finding} (always locally, after the merge). Only a
    verdict's constructor is read — {!finding} re-runs the cell traced —
    so untraced {!sweep_cell} verdicts suffice. A caller holding only a
    remote tag maps it through {!sweep_cell} to build a [verdict]. *)
