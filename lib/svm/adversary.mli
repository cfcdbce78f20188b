(** Adversaries: scheduling policies plus fault plans.

    The adversary chooses which runnable process takes the next atomic
    step, and decides when and {e how} processes fail. All built-in
    policies are fair (every runnable process is scheduled infinitely
    often), as required for the liveness claims of the paper; faults are
    how the adversary exercises its power.

    The fault model is a three-tier taxonomy on top of crash-stop:

    - {e responsive omission} ([Omission]): the designated operation
      hangs forever — the process is stuck, not crashed. This is exactly
      the adversary the paper's [cancel]/arbiter machinery exists to
      survive.
    - {e crash-recovery} ([Crash_recovery]): the process restarts at a
      step boundary, losing its local program state but not shared
      memory, and re-runs its program from the top.
    - {e Byzantine value faults} ([Byzantine]): from the trigger on,
      every value-carrying operation of the process (snapshot/register
      writes, consensus/k-set proposals, enqueues) carries an
      adversarially chosen value instead. The corrupt value is derived
      deterministically from the schedule position ({!byz_value}), so
      Byzantine runs replay bit-for-bit like every other run. *)

type t

exception Deadlock
(** Raised by {!pick} when no process is runnable — every process is
    finished, stuck, or crashed. Callers that sweep fault boxes should
    treat this as a finding ("the whole system is stuck"), not a checker
    crash. *)

val name : t -> string

val pick : t -> runnable:int list -> global_step:int -> int
(** [pick t ~runnable ~global_step] chooses the pid to step next.
    [runnable] is sorted; raises {!Deadlock} when it is empty. *)

(** {1 Fault kinds} *)

type fault_kind =
  | Crash_stop  (** the process halts; classic BG fault *)
  | Omission  (** the next operation hangs forever; the process is stuck *)
  | Crash_recovery
      (** local state lost at a step boundary; re-runs from the top *)
  | Byzantine  (** value-carrying operations corrupted from here on *)

val fault_kind_name : fault_kind -> string
val fault_kind_of_name : string -> fault_kind option
val pp_fault_kind : Format.formatter -> fault_kind -> unit

val fault_now :
  t ->
  pid:int ->
  local_step:int ->
  global_step:int ->
  next:Op.info option ->
  fault_kind option
(** Asked just before [pid] would execute its next operation: [None]
    executes it normally, [Some kind] inflicts that fault instead (for
    [Byzantine], the operation executes with a corrupted value). Asked
    exactly once per scheduler iteration. *)

val crash_now :
  t -> pid:int -> local_step:int -> global_step:int -> next:Op.info option -> bool
(** [crash_now] is [fault_now = Some Crash_stop]; kept as the crash-stop
    view of the fault query (consumes the same per-iteration budget —
    ask one of the two, not both). *)

val byz_value : pid:int -> global_step:int -> Univ.t
(** The corrupt value a Byzantine [pid] writes at [global_step]:
    deterministic in the schedule position, and far outside the input
    ranges used by the scenarios (an int ≥ 10^9). *)

(** {1 Scheduling policies} *)

val round_robin : unit -> t
(** Cycles through runnable pids in index order. *)

val random : seed:int -> t
(** Uniform choice among runnable pids, deterministic from [seed]. *)

val priority : int list -> t
(** Prefers pids earlier in the list; unlisted pids come after, in index
    order. Runs the favourite until it finishes — fair only because
    processes terminate or crash; use with fault plans to build targeted
    worst cases. *)

val biased : seed:int -> favourite:int -> weight:int -> t
(** Random, but the favourite is [weight] times more likely. *)

val of_replay : ?fallback:t -> Trace.decision list -> t
(** Re-drive a recorded run: each scheduler iteration consumes one
    decision — schedule the recorded pid, and re-inflict the recorded
    fault ([Crash]/[Omit]/[Restart]/[Byz]), if any. Replaying the
    decision log of a run against the same programs and a fresh
    environment reproduces that run bit-for-bit ({!Trace.decisions}) —
    Byzantine corrupt values included, as they derive from the schedule
    position. When the log runs out, or a recorded pid is no longer
    runnable (the programs changed), control falls back to [fallback]
    (default {!round_robin}) — fault decisions are consumed but not
    re-applied in that divergent regime. *)

(** {1 Fault plans} *)

type crash_spec =
  | Crash_at_local of { pid : int; step : int }
      (** Fire just before [pid]'s [step]-th operation (0-based). *)
  | Crash_at_global of { pid : int; step : int }
      (** Fire at [pid]'s first opportunity once the global step counter
          reaches [step]. *)
  | Crash_before_op of { pid : int; nth : int; matches : Op.info -> bool }
      (** Fire just before the [nth] (0-based) of [pid]'s operations
          matching [matches]. *)

type fault_spec = { kind : fault_kind; trigger : crash_spec }
(** One fault of [kind], fired by [trigger]. A [Byzantine] spec latches:
    once triggered, the pid stays Byzantine for the rest of the run. *)

val with_faults : t -> fault_spec list -> t
(** Layer a fault plan over a policy. Each spec fires at most once; when
    several fire on the same query the most severe kind wins
    (crash > omission > recovery > Byzantine). *)

val with_crashes : t -> crash_spec list -> t
(** [with_faults] with every spec at [Crash_stop]. *)

val random_crashes :
  ?within:int -> seed:int -> max_crashes:int -> nprocs:int -> t -> t
(** Layer a random crash plan: up to [max_crashes] distinct victims, each
    crashing at a local step drawn uniformly from [\[0, within)] (default
    300; pick [within] near the run's expected per-process step count so
    crashes actually land), deterministic from [seed]. *)

val random_fault_plan :
  ?within:int ->
  seed:int ->
  max_faults:int ->
  kinds:fault_kind list ->
  nprocs:int ->
  unit ->
  (int * int * fault_kind) list
(** A random fault plan: up to [max_faults] distinct victims as
    [(pid, local step, kind)] triples, steps drawn uniformly from
    [\[0, within)] (default 300), kinds uniformly from [kinds],
    deterministic from [seed]. {!random_crashes} inflicts the
    [kinds = \[Crash_stop\]] plan. *)

val crash_count : t -> int
(** Crash-stop faults this adversary has inflicted so far in the current
    run (other fault kinds are not counted here). *)
