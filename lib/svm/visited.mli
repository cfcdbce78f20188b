(** A shared, domain-safe visited-state table for the explorer.

    One table is shared by every exploring domain, so a state
    fingerprinted by one domain is never re-expanded by a sibling — the
    cross-domain deduplication that makes parallel exploration pay for
    itself. The structure is a fixed array of lock-free buckets (chains
    updated by compare-and-set) fronted by a bloom filter, so the common
    "definitely new" answer skips the bucket walk entirely.

    {b Linearizability.} [seen_or_add] behaves as an atomic
    insert-if-absent: for any set of concurrent calls with the same key,
    exactly one returns [false] (the insertion) and every other returns
    [true]. The proof obligations are local:

    - the bucket head is read {e before} the bloom bits, so under
      sequentially-consistent atomics "bits clear" implies the key was
      not in the head just read (an inserter sets its bloom bits before
      publishing the bucket CAS);
    - a failed CAS re-reads the chain and re-walks it before retrying,
      so two racing inserters of the same key can never both link it.

    Memory ordering is OCaml's [Atomic] (sequentially consistent);
    bucket chains are immutable lists, so readers never observe a
    half-built node. *)

type 'k t

type stats = {
  mutable hits : int;  (** key was already present *)
  mutable misses : int;  (** key was inserted by this call *)
  mutable bloom_fp : int;
      (** bloom said "maybe present" but the exact walk said no — a
          false positive. Timing-dependent under concurrency (a racing
          insert can set the bits first), so not part of the
          determinism contract. *)
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

    The numeric id values depend on scheduling (a lost insertion race
    abandons its reserved id), so ids are process-local names: never
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
  (** Upper bound on ids handed out (exact when no insert race was ever
      lost). Post-run reporting only. *)
end
