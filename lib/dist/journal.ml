module Json = Svm.Json

let default_dir = ".asmsim-jobs"

type t = { j_id : string; j_dir : string; j_oc : out_channel; j_fsync : bool }

let id t = t.j_id

(* Fresh ids must only be unique enough to not collide on one machine:
   wall-clock second + pid + an in-process counter. *)
let counter = ref 0

let fresh_id () =
  incr counter;
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d-p%d-%d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec (Unix.getpid ()) !counter

let mkdir_p path =
  if not (Sys.file_exists path) then Unix.mkdir path 0o755

(* Durability of a *file* needs durability of its directory entry: an
   fsynced journal whose directory was never synced can vanish whole on
   power loss, stranding a resume. Some filesystems refuse fsync on a
   directory fd — a capability gap, not corruption — so errors are
   swallowed. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let journal_file ~dir id = Filename.concat (Filename.concat dir id) "journal.jsonl"

let write_line t v =
  output_string t.j_oc (Json.to_string v);
  output_char t.j_oc '\n';
  flush t.j_oc;
  if t.j_fsync then Unix.fsync (Unix.descr_of_out_channel t.j_oc)

let create ?(dir = default_dir) ?(fsync = false) ~job ~cells ~shard_size () =
  mkdir_p dir;
  let j_id = fresh_id () in
  mkdir_p (Filename.concat dir j_id);
  let j_oc = open_out_gen [ Open_creat; Open_wronly; Open_trunc ] 0o644
      (journal_file ~dir j_id)
  in
  let t = { j_id; j_dir = dir; j_oc; j_fsync = fsync } in
  write_line t
    (Json.Obj
       [
         ("v", Json.Int 1);
         ("job", Proto.job_to_json job);
         ("cells", Json.Int cells);
         ("shard_size", Json.Int shard_size);
       ]);
  if fsync then begin
    (* The header line is on disk; now make the file's existence (and
       the job directory's) just as durable as its contents. *)
    fsync_dir (Filename.concat dir j_id);
    fsync_dir dir
  end;
  t

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A record exists only once its newline does: a torn final line (the
   append a crash interrupted) is not part of the journal. *)
let complete_prefix_len s =
  match String.rindex_opt s '\n' with None -> 0 | Some i -> i + 1

let reopen ?(dir = default_dir) ?(fsync = false) j_id =
  let file = journal_file ~dir j_id in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "no journal for job %s under %s" j_id dir)
  else begin
    (* Appending after a torn line would weld the next record onto it,
       corrupting both; cut back to the last record boundary first. *)
    let s = read_file file in
    let valid = complete_prefix_len s in
    if valid < String.length s then begin
      let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd valid;
          if fsync then Unix.fsync fd)
    end;
    if fsync then fsync_dir (Filename.concat dir j_id);
    Ok
      {
        j_id;
        j_dir = dir;
        j_oc = open_out_gen [ Open_append; Open_wronly ] 0o644 file;
        j_fsync = fsync;
      }
  end

let append_shard t ~shard ~payload =
  write_line t
    (Json.Obj [ ("shard", Json.Int shard); ("payload", payload) ])

let append_hostile t ~shard =
  write_line t (Json.Obj [ ("hostile", Json.Int shard) ])

let close t = close_out t.j_oc

(* The result-cache index: one marker file per completed job
   description, named by a digest of its fingerprint and holding the job
   id, so a lookup reads one file instead of parsing every journal. It
   lives beside the job directories but holds no journal, so
   {!list_ids} never reports it. The digest covers the protocol version
   too: a marker completed by a binary of another version may hold an
   outcome this one computes differently, so it must not answer. *)
let marker ~dir fingerprint =
  Filename.concat (Filename.concat dir "completed")
    (Digest.to_hex
       (Digest.string (Printf.sprintf "v%d:%s" Proto.net_version fingerprint)))

let mark_complete t ~fingerprint =
  try
    mkdir_p (Filename.concat t.j_dir "completed");
    let file = marker ~dir:t.j_dir fingerprint in
    let tmp = file ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc t.j_id);
    Unix.rename tmp file
  with Sys_error _ | Unix.Unix_error _ -> ()

let completed_id ?(dir = default_dir) ~fingerprint () =
  match
    In_channel.with_open_bin (marker ~dir fingerprint) In_channel.input_all
  with
  | id -> Some id
  | exception Sys_error _ -> None

type loaded = {
  l_job : Proto.job;
  l_cells : int;
  l_shard_size : int;
  l_done : (int * Svm.Json.t) list;
  l_hostile : int list;
}

(* Same boundary rule as {!reopen}: a torn final line is invisible. *)
let complete_lines s =
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i -> String.split_on_char '\n' (String.sub s 0 i)

let load ?(dir = default_dir) j_id =
  let file = journal_file ~dir j_id in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "no journal for job %s under %s" j_id dir)
  else
    match complete_lines (read_file file) with
    | [] -> Error (Printf.sprintf "journal of job %s is empty" j_id)
    | header :: rest -> (
        match Json.of_string header with
        | Error m ->
            Error (Printf.sprintf "journal of job %s: corrupt header: %s" j_id m)
        | Ok h -> (
            let int_field name =
              Option.bind (Json.member name h) Json.to_int
            in
            match
              (Json.member "job" h, int_field "cells", int_field "shard_size")
            with
            | Some jv, Some l_cells, Some l_shard_size -> (
                match Proto.job_of_json jv with
                | Error m ->
                    Error
                      (Printf.sprintf "journal of job %s: bad job record: %s"
                         j_id m)
                | Ok l_job ->
                    (* Body lines append-only; stop at the first corrupt
                       line — it can only be the interrupted last write. *)
                    let done_rev = ref [] in
                    let hostile_rev = ref [] in
                    (try
                       List.iter
                         (fun line ->
                           match Json.of_string line with
                           | Error _ -> raise Exit
                           | Ok v -> (
                               match
                                 ( Json.member "shard" v,
                                   Json.member "payload" v,
                                   Json.member "hostile" v )
                               with
                               | Some s, Some payload, _ -> (
                                   match Json.to_int s with
                                   | Some shard ->
                                       done_rev := (shard, payload) :: !done_rev
                                   | None -> raise Exit)
                               | _, _, Some hs -> (
                                   match Json.to_int hs with
                                   | Some shard ->
                                       hostile_rev := shard :: !hostile_rev
                                   | None -> raise Exit)
                               | _ -> raise Exit))
                         rest
                     with Exit -> ());
                    Ok
                      {
                        l_job;
                        l_cells;
                        l_shard_size;
                        l_done = List.rev !done_rev;
                        l_hostile = List.rev !hostile_rev;
                      })
            | _ ->
                Error
                  (Printf.sprintf "journal of job %s: malformed header" j_id)))

let list_ids ?(dir = default_dir) () =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun id ->
           Sys.file_exists (journal_file ~dir id))
    |> List.sort String.compare
