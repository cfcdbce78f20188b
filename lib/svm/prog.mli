(** Programs: a free monad over {!Op.t}.

    A process of the simulated system is a value of type ['a t]: a tree of
    atomic shared-memory operations ending in a decision of type ['a]. The
    scheduler ({!Exec}) interprets one operation per step, so asynchrony is
    exactly the interleaving of [Step] nodes, and a simulation algorithm
    can interpret someone else's program operation by operation (this is
    what the BG-style simulators do). *)

type 'a t =
  | Done of 'a
  | Step : 'r Op.t * ('r -> 'a t) -> 'a t
  | Await : 'r Op.t * ('r -> 'a t option) -> 'a t
      (** [Await (op, pred)] is a stateless spin: each try performs
          [op] as one step; [pred r = Some p] continues with [p], and
          [None] means "try again from this same node". It abbreviates
          the [Step] that loops back to itself on [None], and every
          interpreter but {!Exec} runs it as exactly that step.

          {b Contract.} [op] is [Reg_read] or [Snap_scan], and [pred]
          is a pure function of the result. Then a failed try is fully
          determined by the store it read: while the store is unchanged
          ({!Env.version}), another try reads the same value and fails
          again, so {!Exec} may skip the read and the predicate of such
          a try (the process is {e parked}) with no observable
          difference. An [Await] over any other op is legal but never
          parks.

          A spin that carries state (a counter, the previous collect)
          stays a {!loop}: its next try depends on more than the store,
          so an unchanged store does not determine it, and there is no
          single node to park on. *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t
val perform : 'r Op.t -> 'r t

val yield : unit t
(** A step with no shared-memory effect; gives the scheduler (and a
    simulator's internal thread scheduler) a chance to switch processes. *)

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
end

val iter_list : ('a -> unit t) -> 'a list -> unit t
val fold_list : ('acc -> 'a -> 'acc t) -> 'acc -> 'a list -> 'acc t

val loop : ('s -> [ `Again of 's | `Stop of 'a ] t) -> 's -> 'a t
(** [loop body s] runs [body] repeatedly, threading state, until it stops.
    Each iteration must perform at least one operation for the scheduler to
    stay fair; bodies that might perform none should include {!yield}. *)

(** {1 Typed operation helpers} *)

val reg_read : 'a Codec.t -> Op.fam -> Op.key -> 'a option t
val reg_write : 'a Codec.t -> Op.fam -> Op.key -> 'a -> unit t
val snap_set : 'a Codec.t -> Op.fam -> Op.key -> 'a -> unit t
val snap_scan : 'a Codec.t -> Op.fam -> Op.key -> 'a option array t

val snap_scan_until :
  'a Codec.t -> Op.fam -> Op.key -> ('a option array -> 'b option) -> 'b t
(** [snap_scan_until c fam key f] scans until [f] of the decoded scan
    is [Some v], and returns [v]: one [Await], so a decider blocked on
    an unchanged snapshot parks (see {!t}). [f] must be pure. *)

val ts : Op.fam -> Op.key -> bool t
val cons_propose : 'a Codec.t -> Op.fam -> Op.key -> 'a -> 'a t
val kset_propose : 'a Codec.t -> Op.fam -> Op.key -> 'a -> 'a t
val queue_enq : 'a Codec.t -> Op.fam -> Op.key -> 'a -> unit t
val queue_deq : 'a Codec.t -> Op.fam -> Op.key -> 'a option t

val cas : 'a Codec.t -> Op.fam -> Op.key -> expected:'a option -> desired:'a -> bool t
(** Structural compare&swap on a register (see {!Op.t}); the environment
    must have been created with [allow_cas]. *)
