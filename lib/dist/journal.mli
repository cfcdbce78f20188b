(** Append-only job journals: crash-tolerant job-queue state.

    A journal is a directory [<dir>/<job-id>/] holding one
    [journal.jsonl] file: a header line recording the job, its cell
    count and the shard size, followed by one line per completed shard
    (carrying the shard's result payload) and per hostile shard. Lines
    are flushed as written, so a queue killed at any instant
    leaves a journal whose intact prefix is a set of {e finished}
    shards — resuming re-runs only the rest. {!load} and {!reopen} find
    that prefix with one scanner over [Corpus.Append_log]: it ends at
    the first line that is torn or does not decode.

    Shard indices are only meaningful against the recorded shard size,
    which is why it is in the header: a resumed run re-shards the plan
    identically instead of re-deriving a size from its own worker
    count. *)

val default_dir : string
(** [".asmsim-jobs"], relative to the working directory. *)

type t
(** An open journal, owned by one job queue. *)

val create :
  ?dir:string ->
  ?fsync:bool ->
  job:Proto.job ->
  cells:int ->
  shard_size:int ->
  unit ->
  t
(** Create [<dir>/<fresh-id>/journal.jsonl] and write the header. With
    [fsync] (default [false]), every appended line is [fsync]ed —
    checkpoints then survive power loss, not just process death, at the
    cost of a disk round-trip per shard — and the journal's directory
    entries are synced at creation, so the file itself cannot vanish on
    a kill-after-create (a durable file in an undurable directory is
    not durable). *)

val reopen : ?dir:string -> ?fsync:bool -> string -> (t, string) result
(** Open an existing journal for appending (resume). Everything past the
    prefix {!load} reads — a torn or corrupt last write — is truncated
    away first, so every record appended after it is loaded too. A
    journal whose header does not decode is an [Error], left as is. *)

val id : t -> string
val append_shard : t -> shard:int -> payload:Svm.Json.t -> unit
val append_hostile : t -> shard:int -> unit
val close : t -> unit

(** {1 Result-cache index} *)

val mark_complete : t -> fingerprint:string -> unit
(** Record that the job of this journal ran to completion, under the
    job description's {!Proto.job_fingerprint}: a later identical job
    finds the journal with {!completed_id} in one file read. The marker
    is keyed by {!Proto.net_version} as well, so a marker left by a
    binary of another protocol version is never a hit. It is written
    atomically (and fsynced when the journal is) and replaces any
    earlier one. A marker that cannot be written is skipped: it only
    costs a later re-run. *)

val completed_id : ?dir:string -> fingerprint:string -> unit -> string option
(** The id of the journal last marked complete for this fingerprint. A
    hint only: the caller still loads and re-validates the journal. *)

type loaded = {
  l_job : Proto.job;
  l_cells : int;
  l_shard_size : int;
  l_done : (int * Svm.Json.t) list;  (** completed shards, oldest first *)
  l_hostile : int list;
}

val load : ?dir:string -> string -> (loaded, string) result
(** Parse a journal's valid prefix; what follows it is ignored. A
    corrupt header or missing file is an [Error]. *)

val list_ids : ?dir:string -> unit -> string list
(** Job ids present under [dir], sorted. *)
