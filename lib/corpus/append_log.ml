let mkdir_p path = if not (Sys.file_exists path) then Unix.mkdir path 0o755

let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type t = { oc : out_channel; fsync : bool }

let create ~fsync path =
  let flags = [ Open_wronly; Open_creat; Open_trunc; Open_binary ] in
  { oc = open_out_gen flags 0o644 path; fsync }

let open_ ~fsync ~scan path =
  let s = if Sys.file_exists path then read_file path else "" in
  match scan s with
  | Error _ as e -> e
  | Ok (v, valid) ->
      (* Appending after a torn or corrupt record would weld the next
         record onto it, hiding both: cut back to the valid prefix. *)
      if valid < String.length s then begin
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.ftruncate fd valid;
            if fsync then Unix.fsync fd)
      end;
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644
          path
      in
      Ok (v, { oc; fsync })

let sync t =
  flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc)

let append t record =
  output_string t.oc record;
  if t.fsync then sync t else flush t.oc

let close t = close_out t.oc

let write_atomic ~fsync path bytes =
  let tmp = path ^ ".tmp" in
  let t = create ~fsync tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr t.oc)
    (fun () -> append t bytes);
  Sys.rename tmp path;
  if fsync then fsync_dir (Filename.dirname path)
