(** The scheduler: runs a set of programs to completion under an
    adversary.

    One call to {!run} is one execution of the distributed system. Each
    iteration the adversary picks a runnable process; the process then
    either executes exactly one atomic operation against the
    environment, or suffers the fault the adversary's plan dictates
    ({!Adversary.fault_now}): crash-stop, responsive omission (the
    operation hangs — the process is [Stuck]), crash-recovery (local
    program state reset to the initial program; shared memory survives),
    or a Byzantine value fault (the operation executes with a corrupted
    value). The run ends when every process has decided, crashed or got
    stuck, or when the step budget is exhausted — remaining live
    processes are then reported as [Blocked], which is how the
    experiments detect the permanent blocking the paper reasons about.

    {b Parked spins.} A process whose {!Prog.Await} try fails on a pure
    read is {e parked} at the store's {!Env.version}. While that
    version stands, a new try would read what the last one read and
    the pure predicate would fail again, so when the adversary picks a
    parked process, no fault fires, and the version is unchanged, the
    step skips exactly those two parts: the read and the predicate.
    Everything else a step does still happens, in the same order — the
    scheduling tally, the op count, the per-op metrics, the trace event
    and scheduling decision, the [Op_applied] monitor event. So every
    result, trace, replay artifact, metrics snapshot and violation is
    byte-identical to running the [Await] as the [Step] it abbreviates.
    A passing try, a restart, or any change to the store un-parks the
    process; a Byzantine value or a [Codec.Type_error] is met by a real
    try, as any other step. A stateful {!Prog.loop} never parks: it has
    no single node to stay on, and its next try depends on more than
    the store. *)

type 'a outcome =
  | Decided of 'a
  | Crashed
  | Blocked  (** still running when the budget ran out *)
  | Stuck
      (** halted on a hung operation (responsive omission), or poisoned
          by an undecodable Byzantine value — present in the system but
          never taking another step *)

type 'a result = {
  outcomes : 'a outcome array;
  op_counts : int array;
      (** operations executed per process, cumulative across restarts *)
  total_steps : int;
  crashed : int list;  (** pids, in crash order *)
  stuck : int list;  (** pids stuck by omission or poisoning, in order *)
  restarts : int list;
      (** pids restarted by crash-recovery faults, in order; a pid
          appears once per restart *)
  trace : Trace.t option;
}

val run :
  ?budget:int ->
  ?record_trace:bool ->
  ?monitors:'a Monitor.t list ->
  ?metrics:Metrics.t ->
  env:Env.t ->
  adversary:Adversary.t ->
  'a Prog.t array ->
  'a result
(** [run ~env ~adversary progs] executes [progs.(i)] as process [i].
    Default [budget] is [2_000_000] steps. The number of programs must
    equal [Env.nprocs env].

    With [metrics], the run records into the registry: per-kind op
    counters ([op.<kind>], [op.yield], [op.corrupted]), fault tallies
    ([fault.<kind>]), outcome tallies ([outcome.<name>]), per-process
    op and scheduling-step histograms ([proc.ops], [proc.steps]), the
    run-length histogram ([run.steps]) and, per touched object
    instance, access counts ([obj.ops.<fam>\[key\]]) and contention —
    distinct accessing pids — ([obj.pids.<fam>\[key\]], a max gauge).
    Everything is keyed on step counts, so two replays of one decision
    log snapshot identically; without [metrics] no per-op telemetry
    state is allocated at all.

    Each [monitors] entry is consulted after every executed operation,
    decision and fault; the first failed check aborts the run by raising
    {!Monitor.Violation}, carrying the live trace when [record_trace] is
    set. With [record_trace] the result's trace also holds the complete
    decision log ({!Trace.decisions}) — fault decisions included — from
    which {!Adversary.of_replay} reproduces the run bit-for-bit (a
    Byzantine value is a deterministic function of the schedule
    position, {!Adversary.byz_value}). Monitors are stateful: pass
    freshly built ones to every run. *)

val decided : 'a result -> 'a list
(** All decided values, in pid order. *)

val decided_count : 'a result -> int
val blocked : 'a result -> int list
val outcome_name : 'a outcome -> string
