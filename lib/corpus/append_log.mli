(** The one crash discipline under the job journal ([Dist.Journal]) and
    the corpus tail ({!Store}), plus the atomic file write for their
    side files. A record exists only once its complete, valid bytes do:
    each format's {e scanner} returns what it decoded and the byte
    length of the longest valid prefix, and {!open_} cuts everything
    past it, so a reader running the same scanner sees every record
    appended afterwards. *)

val mkdir_p : string -> unit
(** Create a directory unless it exists (its parent must). *)

val fsync_dir : string -> unit
(** Make a directory's entries durable: a file created or renamed in an
    unsynced directory can vanish whole on power loss. Errors are
    swallowed — some filesystems refuse fsync on a directory, a
    capability gap, not corruption. *)

val read_file : string -> string

type t

val create : fsync:bool -> string -> t
(** Create (or empty) a log. With [fsync], each {!append} is fsynced. *)

val open_ :
  fsync:bool ->
  scan:(string -> ('a * int, string) result) ->
  string ->
  ('a * t, string) result
(** Open a log for appending, creating it if absent, after truncating
    it to the prefix [scan] finds valid (the truncation fsynced with
    [fsync]). A scanner [Error] refuses the file: nothing is cut. *)

val append : t -> string -> unit
(** One complete record, one flush, and an fsync with [fsync]. *)

val sync : t -> unit
(** Flush and fsync, whatever the log's [fsync]. *)

val close : t -> unit

val write_atomic : fsync:bool -> string -> string -> unit
(** Replace a file: write [path ^ ".tmp"] (fsynced with [fsync]), rename
    it over [path], then with [fsync] sync the directory. A crash leaves
    the old file or the new one, never a mix. *)
