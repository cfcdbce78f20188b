(* Socket plumbing shared by the serve daemon and its remote peers:
   address parsing, listening, dialing with a deadline, the client side
   of the handshake, and the network chaos harness. *)

(* ------------------------------------------------------------------ *)
(* Addresses                                                            *)
(* ------------------------------------------------------------------ *)

let parse_addr s =
  if String.contains s '/' then Ok (Unix.ADDR_UNIX s)
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "%S: expected HOST:PORT" s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | None -> Error (Printf.sprintf "%S: port %S is not a number" s port)
        | Some p when p < 0 || p > 65535 ->
            Error (Printf.sprintf "%S: port %d out of range" s p)
        | Some p -> (
            let resolve () =
              if host = "" || host = "*" then Unix.inet_addr_any
              else
                match Unix.inet_addr_of_string host with
                | ip -> ip
                | exception Failure _ -> (
                    match Unix.gethostbyname host with
                    | { Unix.h_addr_list = [||]; _ } -> raise Not_found
                    | h -> h.Unix.h_addr_list.(0))
            in
            match resolve () with
            | ip -> Ok (Unix.ADDR_INET (ip, p))
            | exception Not_found ->
                Error (Printf.sprintf "%S: cannot resolve host %S" s host)))

let string_of_sockaddr = function
  | Unix.ADDR_INET (ip, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) p
  | Unix.ADDR_UNIX "" -> "local"
  | Unix.ADDR_UNIX p -> p

(* ------------------------------------------------------------------ *)
(* Listening and dialing                                                *)
(* ------------------------------------------------------------------ *)

let listen ?(backlog = 64) addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.set_close_on_exec fd;
     Unix.bind fd addr;
     Unix.listen fd backlog
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> 0
  in
  (fd, port)

(* Whether a connect to a Unix-domain socket is refused or finds no
   socket — nothing listens there any more. Non-blocking, so a live
   listener with a full backlog counts as live rather than stalling the
   caller. A TCP address is never [refused]: its server may come back. *)
let refused = function
  | Unix.ADDR_INET _ -> false
  | Unix.ADDR_UNIX _ as addr ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.set_nonblock fd;
          match Unix.connect fd addr with
          | () -> false
          | exception
              Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
              true
          | exception Unix.Unix_error _ -> false)

(* A private directory's owner removes it when the run ends, unless the
   run was SIGKILLed. Such a leftover is removed here, by the next run,
   only when it is certainly one: this user's, mode 0700, holding a
   [queue] socket a connect to which is refused. Every other directory
   — another tool's, a live fleet's — is left alone. *)
let remove_stale temp_dir =
  let uid = Unix.getuid () in
  let stale dir =
    match (Unix.lstat dir, Unix.lstat (Filename.concat dir "queue")) with
    | ( { Unix.st_kind = Unix.S_DIR; st_uid; st_perm; _ },
        { Unix.st_kind = Unix.S_SOCK; _ } ) ->
        st_uid = uid && st_perm = 0o700
        && refused (Unix.ADDR_UNIX (Filename.concat dir "queue"))
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  match Sys.readdir temp_dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          let dir = Filename.concat temp_dir name in
          if String.starts_with ~prefix:"asmsim-" name && stale dir then begin
            (try Sys.remove (Filename.concat dir "queue")
             with Sys_error _ -> ());
            try Unix.rmdir dir with Unix.Unix_error _ -> ()
          end)
        names

(* A Unix-domain socket in a fresh directory only this user may enter
   (mode 0700): no other user's process can dial it, whatever it knows
   about the protocol. sun_path holds ~108 bytes, so a long temp dir
   falls back to /tmp. The socket is bound and listening under a
   temporary name before it is renamed to [queue], so a [queue] socket
   that refuses a connect is never one still being set up. *)
let listen_private () =
  let base = Filename.get_temp_dir_name () in
  let temp_dir = if String.length base > 64 then "/tmp" else base in
  remove_stale temp_dir;
  let dir = Filename.temp_dir ~temp_dir ~perms:0o700 "asmsim-" "" in
  let path = Filename.concat dir "queue" in
  let binding = Filename.concat dir "binding" in
  let remove () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ binding; path ];
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  let fail fd exn =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fd;
    remove ();
    raise exn
  in
  match listen (Unix.ADDR_UNIX binding) with
  | exception exn -> fail None exn
  | fd, _ -> (
      match Unix.rename binding path with
      | () -> (fd, path, remove)
      | exception exn -> fail (Some fd) exn)

(* Every exchange is a small frame answered by another (an assignment
   by a result, a ping by a pong), and the queue at times writes two
   back to back (a client's last shard, then the job's end), so Nagle's
   algorithm meeting the peer's delayed ACK would stall the second for
   tens of milliseconds. *)
let no_delay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let dial ?(timeout = 10.) addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  let fail msg =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error msg
  in
  try
    Unix.set_close_on_exec fd;
    no_delay fd;
    Unix.set_nonblock fd;
    (match Unix.connect fd addr with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
      -> ());
    (* The connect completes (or fails) when the socket turns writable. *)
    match Unix.select [] [ fd ] [] timeout with
    | _, [], _ -> fail "connect timed out"
    | _ -> (
        match Unix.getsockopt_error fd with
        | Some err -> fail (Unix.error_message err)
        | None ->
            Unix.clear_nonblock fd;
            Ok fd)
  with
  | Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)
  | exn ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise exn

(* ------------------------------------------------------------------ *)
(* Chaos harness                                                        *)
(* ------------------------------------------------------------------ *)

type chaos_mode = Drop | Delay | Truncate | Garbage

let chaos_mode_name = function
  | Drop -> "drop"
  | Delay -> "delay"
  | Truncate -> "truncate"
  | Garbage -> "garbage"

type chaos = { c_mode : chaos_mode; c_every : int; mutable c_count : int }

let chaos ?(every = 7) mode = { c_mode = mode; c_every = max 1 every; c_count = 0 }

exception Chaos_cut

let garbage_bytes = Bytes.of_string (String.init 64 (fun i -> Char.chr (0xc0 lor (i land 0x3f))))

let cut fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  raise Chaos_cut

let chaos_write ?chaos fd v =
  match chaos with
  | None -> Frame.write fd v
  | Some c ->
      c.c_count <- c.c_count + 1;
      if c.c_count mod c.c_every <> 0 then Frame.write fd v
      else begin
        match c.c_mode with
        | Drop -> cut fd
        | Delay ->
            Unix.sleepf 0.05;
            Frame.write fd v
        | Truncate ->
            let b = Frame.encode v in
            Frame.write_all fd b 0 (max 1 (Bytes.length b / 2));
            cut fd
        | Garbage ->
            Frame.write_all fd garbage_bytes 0 (Bytes.length garbage_bytes);
            cut fd
      end

(* ------------------------------------------------------------------ *)
(* Handshake (connecting side)                                          *)
(* ------------------------------------------------------------------ *)

type handshake_error =
  | Hs_rejected of string  (** typed refusal: retrying is pointless *)
  | Hs_link of string  (** the link failed; retrying may succeed *)

let client_handshake ?(timeout = 10.) fd ~role ~fingerprint =
  match
    Frame.write fd
      (Proto.hello_to_json
         {
           Proto.h_version = Proto.net_version;
           h_role = role;
           h_fingerprint = fingerprint;
         })
  with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Hs_link (Unix.error_message err))
  | () -> (
      match Frame.read ~timeout fd with
      | Error e -> Error (Hs_link (Format.asprintf "%a" Frame.pp_error e))
      | Ok v -> (
          match Proto.welcome_of_json v with
          | Error m -> Error (Hs_link ("bad welcome frame: " ^ m))
          | Ok Proto.Welcome -> Ok ()
          | Ok (Proto.Rejected m) -> Error (Hs_rejected m)))
