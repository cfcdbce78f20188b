(** The shared-object store of one run.

    Instances are created lazily on first access, keyed by (family, key).
    The environment enforces the communication model of
    [ASM(nprocs, t, x)]:

    - registers and snapshot objects are always allowed (consensus
      number 1);
    - each snapshot component is writable only by the process with the
      same index (the single-writer snapshot memory of the paper);
    - test&set requires [x >= 2] (its consensus number is 2);
    - each consensus instance may be accessed by at most [x] distinct
      processes (port discipline, checked dynamically);
    - k-set objects are refused unless [allow_kset] (they are not part of
      the base models; key convention: the head of the key is [k]);
    - queues (consensus number 2) require [x >= 2], like test&set;
    - compare&swap (consensus number infinity) is refused unless
      [allow_cas] — no finite-x model can host it.

    The crash bound [t] is the adversary's side of the model and is
    enforced by {!Exec}, not here. *)

type t

exception Violation of string
(** A program broke the model (port discipline, writer discipline, ...).
    This is a bug in the algorithm under test, never normal behaviour. *)

val create :
  nprocs:int -> x:int -> ?allow_kset:bool -> ?allow_cas:bool -> unit -> t

val nprocs : t -> int
val x : t -> int

val apply : t -> pid:int -> 'r Op.t -> 'r
(** [apply t ~pid op] atomically executes [op] on behalf of process
    [pid]. Called by the scheduler, one call per step. *)

val version : t -> int
(** A counter that moves on every change to the store: each mutation
    {!apply} performs (a write, a won test&set, a propose that records
    an accessor or a value, an enqueue, a non-empty dequeue, a
    successful compare&swap, an oracle query), each lazy instance
    creation, each {!rollback} and {!preload_queue}. Reads of existing
    instances never move it — nor do a test&set of a won flag, a failed compare&swap or an
    empty dequeue, which change nothing.

    So two equal versions of one store imply equal answers to every
    read in between — the guarantee {!Exec} parks a blocked
    {!Prog.Await} on. A hash of the store could not give it: equal
    hashes do not imply equal stores. The counter is per store and only
    grows; a {!copy} starts at the original's count. *)

(** {1 Inspection (for tests and experiments; not available to programs)} *)

val peek_register : t -> Op.fam -> Op.key -> Univ.t option
val peek_snapshot : t -> Op.fam -> Op.key -> Univ.t option array option
val cons_accessors : t -> Op.fam -> Op.key -> int list
(** Distinct pids that accessed the given consensus instance (sorted). *)

val peek_ts : t -> Op.fam -> Op.key -> bool
(** Whether the test&set instance has been won ([false] if untouched).
    Once set, a [Ts] operation is a pure read — the explorer's refined
    commutation rules lean on this. *)

val cons_decided : t -> Op.fam -> Op.key -> bool
(** Whether the consensus instance has decided ([false] if untouched). *)

val queue_length : t -> Op.fam -> Op.key -> int
(** Current length of the queue instance ([0] if untouched). *)

val instance_count : t -> int

val copy : t -> t
(** A deep copy of the whole object store. Journaling state is not
    copied: the copy starts with journaling off. *)

(** {1 Undo journal}

    Copy-free backtracking for the exhaustive explorer: with journaling
    on, every mutation performed by {!apply} (including lazy instance
    creation) is logged, and {!rollback} undoes back to a checkpoint in
    time proportional to the steps taken since — not to the size of the
    store. *)

type checkpoint

val enable_journal : t -> unit
(** Start journaling mutations (clears any previous journal). *)

val disable_journal : t -> unit
(** Stop journaling and drop the journal. Outstanding checkpoints
    become invalid. *)

val checkpoint : t -> checkpoint
(** The current journal position. Raises [Invalid_argument] if
    journaling is off. *)

val rollback : t -> checkpoint -> unit
(** Undo every mutation logged since the checkpoint was taken.
    Checkpoints must be rolled back innermost-first; rolling back to a
    checkpoint invalidates all checkpoints taken after it. *)

val with_rollback : t -> (unit -> 'r) -> 'r
(** Checkpoint, run, roll back — on normal return {e and} on exception.
    The arena-reuse idiom: one journaled environment serves many runs,
    each leaving it exactly as it found it, with no per-run copy.
    Raises [Invalid_argument] if journaling is off. *)

(** {1 Canonical state (fingerprinting)}

    A pure value capturing everything that determines the store's
    future behaviour. Instances still in their default state are
    dropped (a default instance is observationally identical to one not
    yet created, so lazy creation order cannot split equivalent
    states), and accessor sets are sorted. Supports polymorphic
    equality and [Hashtbl.hash]. *)

type canonical

val canonical : t -> canonical

type instance_sig
(** The canonical form of one instance — a pure value supporting
    polymorphic equality, comparison and [Hashtbl.hash]. *)

val instance_sig : t -> Op.fam -> Op.key -> instance_sig option
(** The canonical form of the given instance right now, [None] if the
    instance does not exist or is still in its default state (the same
    dropping rule {!canonical} applies). The explorer uses this to
    maintain a store fingerprint incrementally: each operation touches
    exactly one instance, so re-reading that one signature after a step
    is enough to update a whole-store signature. *)

val canonical_parts :
  canonical ->
  ((Op.fam * Op.key) * instance_sig) list * ((Op.fam * int) * int) list
(** The two sorted association lists a {!canonical} consists of:
    non-default instance signatures keyed by (family, key), and nonzero
    oracle query counts keyed by (family, pid). Both sorted by
    polymorphic compare on the key. *)

val state_hash : t -> int
(** [Hashtbl.hash] of {!canonical}, with depth limits large enough to
    cover the whole store. Stable within a process run. *)

val observationally_equal : t -> t -> bool
(** Equality of {!canonical} forms. *)

val prewarm : t -> Op.info list -> unit
(** Eagerly create the instances the given ops would touch. Not needed
    for fingerprint stability (default-state instances are dropped from
    {!canonical}), but lets a scenario pin its object set up front.
    Oracle infos are ignored. *)

val set_oracle : t -> Op.fam -> (pid:int -> query:int -> Univ.t) -> unit
(** Install a failure-detector oracle: [Oracle_query] operations on
    [fam] call the handler with the querying process and its per-process
    query index (so "eventually stable" oracles are expressed as
    functions of the query count). Oracles model Section 1.3's failure
    detectors; they are environment-level, not shared objects. *)

val preload_queue : t -> Op.fam -> Op.key -> Univ.t list -> unit
(** Create a queue instance with initial content (several classic
    consensus-from-queue protocols need a pre-filled queue). Must be
    called before any operation touches the instance. *)
