module Json = Svm.Json
module Append_log = Corpus.Append_log

let default_dir = ".asmsim-jobs"

type t = { j_id : string; j_dir : string; j_log : Append_log.t; j_fsync : bool }

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

let journal_file ~dir id = Filename.concat (Filename.concat dir id) "journal.jsonl"

let write_line t v = Append_log.append t.j_log (Json.to_string v ^ "\n")

let create ?(dir = default_dir) ?(fsync = false) ~job ~cells ~shard_size () =
  Append_log.mkdir_p dir;
  let j_id = fresh_id () in
  Append_log.mkdir_p (Filename.concat dir j_id);
  let j_log = Append_log.create ~fsync (journal_file ~dir j_id) in
  let t = { j_id; j_dir = dir; j_log; j_fsync = fsync } in
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
    Append_log.fsync_dir (Filename.concat dir j_id);
    Append_log.fsync_dir dir
  end;
  t

type loaded = {
  l_job : Proto.job;
  l_cells : int;
  l_shard_size : int;
  l_done : (int * Svm.Json.t) list;
  l_hostile : int list;
}

let int_field name v = Option.bind (Json.member name v) Json.to_int

let header line =
  match Json.of_string line with
  | Error m -> Error ("corrupt header: " ^ m)
  | Ok h -> (
      match
        (Json.member "job" h, int_field "cells" h, int_field "shard_size" h)
      with
      | Some jv, Some l_cells, Some l_shard_size ->
          Proto.job_of_json jv
          |> Result.map_error (( ^ ) "bad job record: ")
          |> Result.map (fun l_job ->
                 { l_job; l_cells; l_shard_size; l_done = []; l_hostile = [] })
      | _ -> Error "malformed header")

let add_line l line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> (
      match
        (int_field "shard" v, Json.member "payload" v, int_field "hostile" v)
      with
      | Some shard, Some payload, _ ->
          Some { l with l_done = (shard, payload) :: l.l_done }
      | _, _, Some shard -> Some { l with l_hostile = shard :: l.l_hostile }
      | _ -> None)

(* The valid prefix, for {!reopen} and {!load} alike: the header line,
   then shard and hostile lines, each counted once its newline is
   written and its JSON decodes to its shape. A journal without a
   header is refused whole. *)
let scan s =
  let rec body l pos =
    let next =
      match String.index_from_opt s pos '\n' with
      | Some nl ->
          add_line l (String.sub s pos (nl - pos))
          |> Option.map (fun l -> (l, nl + 1))
      | None -> None
    in
    match next with
    | Some (l, pos) -> body l pos
    | None ->
        let l_done = List.rev l.l_done and l_hostile = List.rev l.l_hostile in
        Ok ({ l with l_done; l_hostile }, pos)
  in
  match String.index_opt s '\n' with
  | None -> Error "empty"
  | Some nl ->
      Result.bind (header (String.sub s 0 nl)) (fun l -> body l (nl + 1))

let with_file ~dir j_id f =
  let file = journal_file ~dir j_id in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "no journal for job %s under %s" j_id dir)
  else Result.map_error (Printf.sprintf "journal of job %s: %s" j_id) (f file)

let reopen ?(dir = default_dir) ?(fsync = false) j_id =
  with_file ~dir j_id (fun file ->
      Append_log.open_ ~fsync ~scan file
      |> Result.map (fun (_, j_log) ->
             if fsync then Append_log.fsync_dir (Filename.concat dir j_id);
             { j_id; j_dir = dir; j_log; j_fsync = fsync }))

let load ?(dir = default_dir) j_id =
  with_file ~dir j_id (fun file ->
      Result.map fst (scan (Append_log.read_file file)))

let append_shard t ~shard ~payload =
  write_line t
    (Json.Obj [ ("shard", Json.Int shard); ("payload", payload) ])

let append_hostile t ~shard =
  write_line t (Json.Obj [ ("hostile", Json.Int shard) ])

let close t = Append_log.close t.j_log

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
    Append_log.mkdir_p (Filename.concat t.j_dir "completed");
    Append_log.write_atomic ~fsync:t.j_fsync
      (marker ~dir:t.j_dir fingerprint)
      t.j_id
  with Sys_error _ | Unix.Unix_error _ -> ()

let completed_id ?(dir = default_dir) ~fingerprint () =
  match Append_log.read_file (marker ~dir fingerprint) with
  | id -> Some id
  | exception Sys_error _ -> None

let list_ids ?(dir = default_dir) () =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun id ->
           Sys.file_exists (journal_file ~dir id))
    |> List.sort String.compare
