(** A crash-safe, content-addressed corpus of replay artifacts,
    modeled on cemented block stores: an append-only {e tail} file plus
    immutable {e cemented} segment files with indexes.

    Layout under the corpus directory:

    {v
    tail.seg                    appends land here, flushed per record
    segments/seg-00000001.cor   immutable cemented segments
    segments/seg-00000001.idx   offset/length/digest index (rebuildable)
    v}

    Durability contract:
    - {e Appends} ({!add}) are complete framed records, flushed to the
      OS but not fsynced: a crash loses at most the uncemented tail,
      and a torn or corrupt final append is truncated away on reopen —
      by {!Append_log}, the same code that recovers [Dist.Journal].
    - {e Cementing} ({!cement}) makes the tail immutable with the full
      atomic discipline — fsync the tail file, rename it into
      [segments/], fsync the directories, then write the index through
      a fsynced temp-file rename. A crash at any instant leaves either
      the old state or the new state; a segment whose index write was
      interrupted is reindexed from its own bytes on the next open.
    - {e Reads} re-verify every record's content address. A cemented
      record whose bytes no longer hash to their recorded address is
      {e quarantined} — reported as typed data, never a crash, and
      excluded from the index and from dedup.
    - {e Compaction} ({!compact}) merges all cemented segments into
      one, byte-identity-checked against its input before the old
      segments are dropped; it refuses to run while any record is
      quarantined. *)

type t

type reason =
  | Q_digest of { expected : string; actual : string }
      (** framing intact, content does not hash to its address *)
  | Q_malformed of string  (** framing destroyed from this offset on *)

type quarantine = {
  q_file : string;  (** segment file, relative to the corpus dir *)
  q_offset : int;  (** byte offset of the corrupt record *)
  q_reason : reason;
}

val pp_quarantine : Format.formatter -> quarantine -> unit

(** Crash/corruption injection for the robustness tests — armed at
    {!open_}, fires once. *)
type chaos =
  | Kill_at_append of int
      (** SIGKILL this process immediately after the [n]-th append of
          this store's lifetime returns (record complete, uncemented) *)
  | Torn_at_append of int
      (** write only a prefix of the [n]-th appended record, flush the
          torn bytes, then SIGKILL this process *)
  | Bitflip_after_cement
      (** after the next successful cement, flip one payload bit inside
          the newly cemented segment file *)

val open_ :
  ?log:Svm.Log.t -> ?fsync:bool -> ?chaos:chaos -> string -> (t, string) result
(** Open (creating if needed) the corpus at a directory. Recovery runs
    here: the tail is truncated to its last complete valid record, and
    every cemented record is re-verified — corrupt ones land in
    {!quarantined}. Recovery actions (tail truncation, quarantines) are
    reported on [log] at [Warn]. [fsync] (default [true]) controls
    whether cement syncs reach the disk or only the OS. *)

val add : t -> Record.t -> [ `Added of string | `Duplicate of string ]
(** Append a record to the tail unless its content address is already
    present (cemented or in the tail); returns the address either way. *)

val mem : t -> string -> bool
(** Is this content address present (and not quarantined)? *)

val find : t -> string -> Record.t option
(** Re-read a record by content address, re-verifying it from disk.
    [None] if absent — or if the bytes on disk no longer verify, in
    which case the record is quarantined and dropped from the index. *)

val cement : t -> unit
(** Seal the tail into an immutable segment (no-op on an empty tail). *)

val count : t -> int
(** Valid records: cemented + tail, duplicates counted once. *)

val tail_count : t -> int
(** Records in the uncemented tail — what a crash right now may lose. *)

val segments : t -> int
(** Number of cemented segment files. *)

val quarantined : t -> quarantine list
(** Corrupt cemented records found so far, oldest first. *)

val iter : t -> (digest:string -> Record.t -> unit) -> unit
(** Every valid record in storage order (cemented segments in id order,
    offset order within a segment, then the tail). Records are re-read
    and re-verified from disk; a record that fails verification here is
    quarantined and skipped. *)

val fold : t -> init:'a -> f:('a -> digest:string -> Record.t -> 'a) -> 'a

val compact : t -> (int, string) result
(** Merge all cemented segments into a single fresh segment; the tail
    is cemented first. Every input record is re-read, and the output
    bytes are verified to be the byte-identical concatenation of the
    input records before the old segments are removed. Returns the
    number of records in the compacted segment. Refuses ([Error]) when
    any record is quarantined. *)

val close : t -> unit
(** Flush and close the tail (no cement implied). *)
