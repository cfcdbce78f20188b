(** A shared, domain-safe visited-state table for the explorer.

    One table is shared by every exploring domain, so a state
    fingerprinted by one domain is never re-expanded by a sibling — the
    cross-domain deduplication that makes parallel exploration pay for
    itself. The structure is one plain array of buckets, each an
    immutable chain: lookups walk the chain they read without taking a
    lock, and an insert links a new head under one of a fixed set of
    stripe locks. Making a table is two blocks and the locks, whatever
    its bucket count.

    {b Linearizability.} [seen_or_add] behaves as an atomic
    insert-if-absent: for any set of concurrent calls with the same key,
    exactly one returns [false] (the insertion) and every other returns
    [true]. A bucket's chain only ever grows, by a new head linked under
    the bucket's stripe lock, so:

    - a hit linearizes at the chain read that found the key: the key
      was present then and is never removed;
    - an insert linearizes at its locked publish: under the lock it
      re-reads the chain and re-walks it, so no other insert of the key
      can have been published first, and none can be published after
      without first seeing it.

    A lock-free walk that misses only sends the caller to the lock; it
    answers nothing. Chains are immutable lists, and OCaml 5 publishes
    a bucket store ([caml_modify]) with release ordering, so a reader
    never observes a half-built cell. *)

type 'k t

type stats = {
  mutable hits : int;  (** key was already present *)
  mutable misses : int;  (** key was inserted by this call *)
  mutable bloom_fp : int;
      (** Always 0: the table has no bloom filter. Kept so readers of
          the field still compile. *)
}

val fresh_stats : unit -> stats
(** A zeroed per-domain statistics record. Each domain mutates its own
    (plain, unsynchronised) record; fold them after joining. *)

val create : ?buckets:int -> unit -> 'k t
(** [create ()] builds an empty table. [buckets] (default [65536]) is
    rounded up to a power of two; chains grow without bound, so the
    table never refuses an insert, it only walks longer chains. *)

val seen_or_add : 'k t -> hash:int -> 'k -> stats -> bool
(** [seen_or_add t ~hash key stats] returns [true] if [key] was already
    present and inserts it (returning [false]) otherwise, atomically
    with respect to every other domain. [hash] must be a pure function
    of [key] (the same key must always arrive with the same hash); keys
    are compared with polymorphic equality after an exact hash match. *)

val distinct : 'k t -> int
(** Number of distinct keys inserted so far. O(buckets); meant for
    post-run reporting, not hot paths. Racy while inserts are in
    flight. *)

(** A concurrent hash-consing (interning) table.

    [id t key] names [key] with a small integer: the first caller to
    publish a key picks its id, every later caller — in any domain —
    gets that same id back. Within one table, id equality is exactly
    key equality, so a chain of keys can be summarised by one integer
    and compared in O(1). The work-stealing explorer uses this to
    collapse per-process operation histories to ids, making visited-key hashing and equality
    independent of history length.

    Ids are drawn only by the insert that links a new key, so they are
    dense ([1 .. count]); which key gets which number still depends on
    scheduling, so ids are process-local names: never
    compare them across tables, persist them, or let them reach
    deterministic output — only their {e equalities} are stable. *)
module Intern : sig
  type 'k t

  val create : ?buckets:int -> unit -> 'k t
  (** [buckets] (default [65536]) is rounded up to a power of two. Id 0
      is never allocated — callers may use it as a root/empty id. *)

  val id : 'k t -> hash:int -> 'k -> int
  (** Atomic find-or-name. [hash] must be a pure function of [key]. *)

  val count : 'k t -> int
  (** Exact number of ids handed out, i.e. of distinct keys named.
      Post-run reporting only. *)
end
