type reason =
  | Q_digest of { expected : string; actual : string }
  | Q_malformed of string

type quarantine = { q_file : string; q_offset : int; q_reason : reason }

let pp_quarantine ppf q =
  Format.fprintf ppf "%s @@ byte %d: %s" q.q_file q.q_offset
    (match q.q_reason with
    | Q_digest { expected; actual } ->
        Printf.sprintf "digest mismatch (recorded %s, content hashes to %s)"
          expected actual
    | Q_malformed m -> Printf.sprintf "malformed framing (%s)" m)

type chaos =
  | Kill_at_append of int
  | Torn_at_append of int
  | Bitflip_after_cement

(* An entry is (content address, byte offset, byte length); cemented
   segments keep theirs in offset order, the tail in append order. *)
type entry = { e_digest : string; e_off : int; e_len : int }

type location = Cemented of int | In_tail

type t = {
  dir : string;
  seg_dir : string;
  fsync : bool;
  index : (string, location) Hashtbl.t;
  mutable segs : (int * entry list) list;  (** ascending segment id *)
  mutable tail : Append_log.t;  (** flushed per append, fsynced by cement *)
  mutable tail_len : int;
  mutable tail_entries : entry list;  (** append order *)
  mutable quarantine : quarantine list;  (** oldest first *)
  mutable appends : int;  (** lifetime appends, for the chaos hooks *)
  mutable chaos : chaos option;
}

let tail_file t = Filename.concat t.dir "tail.seg"
let seg_name id = Printf.sprintf "seg-%08d.cor" id
let idx_name id = Printf.sprintf "seg-%08d.idx" id
let seg_file t id = Filename.concat t.seg_dir (seg_name id)
let idx_file t id = Filename.concat t.seg_dir (idx_name id)

let read_slice path ~off ~len =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      if in_channel_length ic < off + len then None
      else begin
        seek_in ic off;
        Some (really_input_string ic len)
      end)

let sigkill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* ------------------------------------------------------------------ *)
(* Segment indexes                                                     *)
(* ------------------------------------------------------------------ *)

(* idx files are an accelerator and a resync aid, never the truth: the
   segment's own bytes are re-verified no matter what the idx says, and
   a missing or unreadable idx is rebuilt from the segment. *)

let write_idx ~seg_dir ~fsync id entries =
  let b = Buffer.create 256 in
  Printf.bprintf b "idx 1 %d\n" (List.length entries);
  List.iter
    (fun e -> Printf.bprintf b "%d %d %s\n" e.e_off e.e_len e.e_digest)
    entries;
  Append_log.write_atomic ~fsync
    (Filename.concat seg_dir (idx_name id))
    (Buffer.contents b)

let load_idx ~seg_dir id =
  let path = Filename.concat seg_dir (idx_name id) in
  if not (Sys.file_exists path) then None
  else
    let lines = String.split_on_char '\n' (Append_log.read_file path) in
    match lines with
    | header :: rows -> (
        match String.split_on_char ' ' header with
        | [ "idx"; "1"; n ] -> (
            match int_of_string_opt n with
            | None -> None
            | Some n ->
                let parsed =
                  List.filter_map
                    (fun row ->
                      match String.split_on_char ' ' row with
                      | [ off; len; digest ] -> (
                          match
                            (int_of_string_opt off, int_of_string_opt len)
                          with
                          | Some off, Some len ->
                              Some { e_digest = digest; e_off = off; e_len = len }
                          | _ -> None)
                      | _ -> None)
                    rows
                in
                if List.length parsed = n then Some parsed else None)
        | _ -> None)
    | [] -> None

(* ------------------------------------------------------------------ *)
(* Opening: verify cemented segments, recover the tail                 *)
(* ------------------------------------------------------------------ *)

(* Walk one cemented segment, re-verifying every record. Framing damage
   loses synchronization from the corrupt point on; the idx (when it
   has a row past that point) restores it, so one flipped length digit
   does not swallow the rest of the segment. *)
let scan_segment ~file ~idx buf =
  let len = String.length buf in
  let entries = ref [] and quarantine = ref [] in
  let resync pos =
    match idx with
    | None -> None
    | Some rows ->
        List.find_map
          (fun e -> if e.e_off > pos then Some e.e_off else None)
          rows
  in
  let quarantine_gap pos upto reason =
    quarantine := { q_file = file; q_offset = pos; q_reason = reason } :: !quarantine;
    upto
  in
  let rec go pos =
    if pos < len then
      match Record.parse_at buf pos with
      | Ok (r, n) ->
          entries :=
            { e_digest = Record.digest r; e_off = pos; e_len = n } :: !entries;
          go (pos + n)
      | Error (Record.Digest_mismatch { expected; actual }) -> (
          (* Framing intact: the structural extent is knowable, so only
             this record is lost. *)
          match Record.skip_at buf pos with
          | Ok n -> go (quarantine_gap pos (pos + n) (Q_digest { expected; actual }))
          | Error _ ->
              ignore
                (quarantine_gap pos len
                   (Q_digest { expected; actual })))
      | Error (Record.Malformed m) -> (
          match resync pos with
          | Some next when next > pos -> go (quarantine_gap pos next (Q_malformed m))
          | _ ->
              ignore
                (quarantine_gap pos len
                   (Q_malformed (m ^ "; remainder of segment unreadable"))))
      | Error Record.Truncated ->
          ignore
            (quarantine_gap pos len
               (Q_malformed "segment ends mid-record"))
  in
  go 0;
  (List.rev !entries, List.rev !quarantine)

(* The tail's valid prefix ends at the first record a segment scan
   would quarantine; {!Append_log.open_} cuts the rest. *)
let scan_tail buf =
  let entries, q = scan_segment ~file:"tail.seg" ~idx:None buf in
  let valid = match q with [] -> String.length buf | q :: _ -> q.q_offset in
  let entries = List.filter (fun e -> e.e_off < valid) entries in
  Ok ((entries, valid, String.length buf), valid)

let list_seg_ids seg_dir =
  if not (Sys.file_exists seg_dir) then []
  else
    Sys.readdir seg_dir |> Array.to_list
    |> List.filter_map (fun f ->
           Scanf.sscanf_opt f "seg-%08d.cor%!" (fun id -> id))
    |> List.sort compare

let open_ ?(log = Svm.Log.null) ?(fsync = true) ?chaos dir =
  match
    Append_log.mkdir_p dir;
    Append_log.mkdir_p (Filename.concat dir "segments")
  with
  | exception Unix.Unix_error (e, _, p) ->
      Error (Printf.sprintf "cannot create %s: %s" p (Unix.error_message e))
  | () ->
      let seg_dir = Filename.concat dir "segments" in
      (* A crash mid-compaction can leave its temp file behind; it was
         never renamed, so it is not part of the corpus. *)
      (try Sys.remove (Filename.concat seg_dir "compact.tmp")
       with Sys_error _ -> ());
      let index = Hashtbl.create 256 in
      let quarantine = ref [] in
      let segs =
        List.map
          (fun id ->
            let file = Filename.concat "segments" (seg_name id) in
            let buf = Append_log.read_file (Filename.concat dir file) in
            let idx = load_idx ~seg_dir id in
            let entries, q = scan_segment ~file ~idx buf in
            quarantine := !quarantine @ q;
            (* A crash between the segment rename and its idx write
               leaves an unindexed segment: reindex it now. *)
            if idx = None && q = [] then write_idx ~seg_dir ~fsync id entries;
            List.iter
              (fun e ->
                if not (Hashtbl.mem index e.e_digest) then
                  Hashtbl.replace index e.e_digest (Cemented id))
              entries;
            (id, entries))
          (list_seg_ids seg_dir)
      in
      let tail_path = Filename.concat dir "tail.seg" in
      match Append_log.open_ ~fsync:false ~scan:scan_tail tail_path with
      | Error _ as e -> e
      | Ok ((tail_entries, valid, len), tail) ->
          if len > valid then
            Svm.Log.warnf log "torn tail: truncating %s from %d to %d bytes"
              tail_path len valid;
          List.iter
            (fun q ->
              Svm.Log.warnf log "quarantined record in %s at offset %d"
                q.q_file q.q_offset)
            !quarantine;
          List.iter
            (fun e ->
              if not (Hashtbl.mem index e.e_digest) then
                Hashtbl.replace index e.e_digest In_tail)
            tail_entries;
          Ok
            {
              dir;
              seg_dir;
              fsync;
              index;
              segs;
              tail;
              tail_len = valid;
              tail_entries;
              quarantine = !quarantine;
              appends = 0;
              chaos;
            }

(* ------------------------------------------------------------------ *)
(* Appends and cementing                                               *)
(* ------------------------------------------------------------------ *)

let mem t d = Hashtbl.mem t.index d

let add t r =
  let d = Record.digest r in
  if Hashtbl.mem t.index d then `Duplicate d
  else begin
    let bytes = Record.to_bytes r in
    t.appends <- t.appends + 1;
    (match t.chaos with
    | Some (Torn_at_append n) when t.appends = n ->
        (* Die mid-append: half the record reaches the file, the rest
           never will — exactly the torn tail reopen must cut away. *)
        Append_log.append t.tail
          (String.sub bytes 0 (max 1 (String.length bytes / 2)));
        sigkill_self ()
    | _ -> ());
    Append_log.append t.tail bytes;
    t.tail_entries <-
      t.tail_entries
      @ [ { e_digest = d; e_off = t.tail_len; e_len = String.length bytes } ];
    t.tail_len <- t.tail_len + String.length bytes;
    Hashtbl.replace t.index d In_tail;
    (match t.chaos with
    | Some (Kill_at_append n) when t.appends = n -> sigkill_self ()
    | _ -> ());
    `Added d
  end

let bitflip_in t id =
  (* Flip one bit of the last payload byte of the first record: framing
     survives, the content no longer hashes to its address. *)
  match List.assoc_opt id t.segs with
  | Some (e :: _) when e.e_len >= 2 ->
      let path = seg_file t id in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let pos = e.e_off + e.e_len - 2 in
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          let b = Bytes.create 1 in
          if Unix.read fd b 0 1 = 1 then begin
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
            ignore (Unix.lseek fd pos Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1)
          end)
  | _ -> ()

let cement t =
  if t.tail_entries <> [] then begin
    if t.fsync then Append_log.sync t.tail;
    Append_log.close t.tail;
    let id = 1 + List.fold_left (fun acc (i, _) -> max acc i) 0 t.segs in
    (* write → fsync file (above) → rename → fsync directory: after the
       rename is durable the segment is immutable; the idx write below
       is recoverable (reindexed from the segment) if we die first. *)
    Sys.rename (tail_file t) (seg_file t id);
    if t.fsync then begin
      Append_log.fsync_dir t.seg_dir;
      Append_log.fsync_dir t.dir
    end;
    let entries = t.tail_entries in
    write_idx ~seg_dir:t.seg_dir ~fsync:t.fsync id entries;
    List.iter (fun e -> Hashtbl.replace t.index e.e_digest (Cemented id)) entries;
    t.segs <- t.segs @ [ (id, entries) ];
    t.tail_entries <- [];
    t.tail_len <- 0;
    t.tail <- Append_log.create ~fsync:false (tail_file t);
    match t.chaos with
    | Some Bitflip_after_cement ->
        t.chaos <- None;
        bitflip_in t id
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Verified reads                                                      *)
(* ------------------------------------------------------------------ *)

let count t = Hashtbl.length t.index
let tail_count t = List.length t.tail_entries
let segments t = List.length t.segs
let quarantined t = t.quarantine

let entry_of t d =
  match Hashtbl.find_opt t.index d with
  | None -> None
  | Some (Cemented id) ->
      Option.bind (List.assoc_opt id t.segs) (fun entries ->
          List.find_opt (fun e -> e.e_digest = d) entries)
      |> Option.map (fun e -> (Filename.concat "segments" (seg_name id), e))
  | Some In_tail ->
      List.find_opt (fun e -> e.e_digest = d) t.tail_entries
      |> Option.map (fun e -> ("tail.seg", e))

let quarantine_now t ~file ~e reason =
  t.quarantine <- t.quarantine @ [ { q_file = file; q_offset = e.e_off; q_reason = reason } ];
  Hashtbl.remove t.index e.e_digest

(* Verify a record freshly off the disk; corruption discovered here —
   even in records that verified at open time — quarantines the record
   rather than surfacing garbage or an exception. *)
let read_verified t ~file e =
  (* The tail out_channel is flushed on every append, so the file is
     current for readers. *)
  match read_slice (Filename.concat t.dir file) ~off:e.e_off ~len:e.e_len with
  | None ->
      quarantine_now t ~file ~e (Q_malformed "record extends past end of file");
      None
  | Some buf -> (
      match Record.parse_at buf 0 with
      | Ok (r, _) when Record.digest r = e.e_digest -> Some r
      | Ok _ ->
          quarantine_now t ~file ~e
            (Q_malformed "record bytes changed identity");
          None
      | Error (Record.Digest_mismatch { expected; actual }) ->
          quarantine_now t ~file ~e (Q_digest { expected; actual });
          None
      | Error (Record.Malformed m) ->
          quarantine_now t ~file ~e (Q_malformed m);
          None
      | Error Record.Truncated ->
          quarantine_now t ~file ~e (Q_malformed "record truncated");
          None)

let find t d =
  match entry_of t d with
  | None -> None
  | Some (file, e) -> read_verified t ~file e

let iter t f =
  List.iter
    (fun (id, entries) ->
      let file = Filename.concat "segments" (seg_name id) in
      List.iter
        (fun e ->
          if Hashtbl.find_opt t.index e.e_digest = Some (Cemented id) then
            match read_verified t ~file e with
            | Some r -> f ~digest:e.e_digest r
            | None -> ())
        entries)
    t.segs;
  List.iter
    (fun e ->
      if Hashtbl.find_opt t.index e.e_digest = Some In_tail then
        match read_verified t ~file:"tail.seg" e with
        | Some r -> f ~digest:e.e_digest r
        | None -> ())
    t.tail_entries

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~digest r -> acc := f !acc ~digest r);
  !acc

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

let compact t =
  cement t;
  if t.quarantine <> [] then
    Error
      (Printf.sprintf
         "%d quarantined record(s); compaction refuses to rewrite a corpus it \
          cannot fully verify"
         (List.length t.quarantine))
  else if List.length t.segs <= 1 then
    Ok (match t.segs with [] -> 0 | (_, es) :: _ -> List.length es)
  else begin
    (* Gather the input as the exact bytes of every live record, in
       storage order, deduplicated the same way the index is. *)
    let buf = Buffer.create 4096 in
    let entries = ref [] in
    List.iter
      (fun (id, es) ->
        let bytes = Append_log.read_file (seg_file t id) in
        List.iter
          (fun e ->
            if Hashtbl.find_opt t.index e.e_digest = Some (Cemented id) then begin
              entries :=
                { e with e_off = Buffer.length buf } :: !entries;
              Buffer.add_string buf (String.sub bytes e.e_off e.e_len)
            end)
          es)
      t.segs;
    let entries = List.rev !entries in
    let input = Buffer.contents buf in
    let id = 1 + List.fold_left (fun acc (i, _) -> max acc i) 0 t.segs in
    let tmp = Filename.concat t.seg_dir "compact.tmp" in
    let out = Append_log.create ~fsync:t.fsync tmp in
    Append_log.append out input;
    Append_log.close out;
    (* Byte-identity check against the input, read back from disk: the
       swap happens only once the new segment provably carries exactly
       the records the old ones did. *)
    let written = Append_log.read_file tmp in
    if written <> input then begin
      (try Sys.remove tmp with Sys_error _ -> ());
      Error "compaction output does not match its input byte-for-byte; \
             input segments left untouched"
    end
    else begin
      let old = t.segs in
      Sys.rename tmp (seg_file t id);
      if t.fsync then Append_log.fsync_dir t.seg_dir;
      write_idx ~seg_dir:t.seg_dir ~fsync:t.fsync id entries;
      List.iter
        (fun e -> Hashtbl.replace t.index e.e_digest (Cemented id))
        entries;
      t.segs <- [ (id, entries) ];
      List.iter
        (fun (old_id, _) ->
          (try Sys.remove (seg_file t old_id) with Sys_error _ -> ());
          try Sys.remove (idx_file t old_id) with Sys_error _ -> ())
        old;
      if t.fsync then Append_log.fsync_dir t.seg_dir;
      Ok (List.length entries)
    end
  end

let close t = Append_log.close t.tail
