module Core = Queue_core

type config = Core.config

(* {2 The shell}

   Everything that touches the operating system: the listener, one
   connection per peer with its frame decoder and byte-rate window,
   [select], [accept], SIGTERM and the clock. The core decides; the
   shell carries out its actions and reports what the sockets did. *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Frame.decoder;
  mutable c_window : float * int;  (** byte-rate window: start, bytes *)
}

type shell = {
  cfg : config;
  core : Core.t;
  listener : Unix.file_descr;  (** closed once the drain starts *)
  mutable conns : conn list;
  mutable next_id : int;
  term : bool ref;
}

let now () = Unix.gettimeofday ()
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let feed s ev = Core.handle s.core ~now:(now ()) ev

let drop s c =
  close_quiet c.c_fd;
  s.conns <- List.filter (fun x -> x.c_id <> c.c_id) s.conns

(* The transport lost [c]: close it and tell the core, whose answer (a
   requeued shard's verdict, say) is more work to carry out. *)
let lose s c reason =
  drop s c;
  feed s (Core.Lost { peer = c.c_id; reason })

(* Carry out the core's actions in order. A failed write is a loss like
   any other: its consequences join the end of the work list. *)
let rec perform s = function
  | [] -> ()
  | Core.Cut (id, _) :: rest ->
      List.iter (fun c -> if c.c_id = id then drop s c) s.conns;
      perform s rest
  | Core.Send (id, frame) :: rest -> (
      match List.find_opt (fun c -> c.c_id = id) s.conns with
      | None -> perform s rest
      | Some c -> (
          match Frame.write c.c_fd frame with
          | () -> perform s rest
          | exception Unix.Unix_error (err, _, _) ->
              perform s
                (rest @ lose s c ("write failed: " ^ Unix.error_message err))))

(* Seconds a peer has to complete one frame once it has started it. *)
let frame_stall_timeout = 10.

let rec accept s =
  match Unix.accept s.listener with
  | fd, addr ->
      Unix.set_close_on_exec fd;
      Net.no_delay fd;
      let id = s.next_id in
      s.next_id <- id + 1;
      let dec = Frame.decoder ~stall_timeout:frame_stall_timeout () in
      let c = { c_id = id; c_fd = fd; c_dec = dec; c_window = (now (), 0) } in
      s.conns <- s.conns @ [ c ];
      let name =
        Printf.sprintf "peer %d (%s)" id (Net.string_of_sockaddr addr)
      in
      perform s (feed s (Core.Accepted { peer = id; name }));
      accept s
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept s
  | exception
      Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
      ()

let read_buf = Bytes.create 65536

(* Read what [c] sent, hold it to the byte-rate cap, and hand the core
   every frame it completes; an undecodable or stalled frame loses the
   peer once the frames before it are handled. *)
let pump s c =
  match Unix.read c.c_fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> perform s (lose s c "closed its end")
  | n -> (
      let t = now () in
      let window, over =
        Policy.rate_check ~limit_per_s:s.cfg.rate_limit
          ~window_start:(fst c.c_window) ~window_bytes:(snd c.c_window)
          ~arrived:n ~now:t
      in
      c.c_window <- window;
      if over then perform s (lose s c "byte-rate cap exceeded")
      else
        let rec frames acc =
          match Frame.next ~now:t c.c_dec with
          | Ok None -> (List.rev acc, None)
          | Ok (Some v) -> frames (v :: acc)
          | Error err -> (List.rev acc, Some err)
        in
        Frame.feed ~now:t c.c_dec read_buf n;
        let frames, err = frames [] in
        perform s
          (Core.handle s.core ~now:t
             (Core.Received { peer = c.c_id; bytes = n; frames }));
        match err with
        | Some err when List.memq c s.conns ->
            perform s (lose s c (Format.asprintf "%a" Frame.pp_error err))
        | _ -> ())
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error (err, _, _) ->
      perform s (lose s c ("read failed: " ^ Unix.error_message err))

(* The one select loop of [serve] and [run_fleet]. Each round runs
   [round] (a fleet tends its children there), waits for traffic or the
   core's next deadline (at most [max_wait] seconds), pumps every
   readable peer and ticks the core. SIGTERM turns into a drain; the
   loop ends on [stop], or once a drain has no shard left in flight. *)
let rec loop s ~max_wait ~round ~stop =
  if !(s.term) && not (Core.draining s.core) then begin
    close_quiet s.listener;
    perform s (feed s Core.Drain)
  end;
  if not (stop () || (Core.draining s.core && Core.in_flight s.core = 0))
  then begin
    round ();
    let t = now () in
    let wait =
      match Core.next_deadline s.core ~now:t with
      | None -> max_wait
      | Some d -> Float.min max_wait (Float.max 0.01 (d -. t))
    in
    let listening = not (Core.draining s.core) in
    let fds =
      (if listening then [ s.listener ] else [])
      @ List.map (fun c -> c.c_fd) s.conns
    in
    let readable, _, _ =
      try Unix.select fds [] [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if listening && List.mem s.listener readable then accept s;
    List.iter
      (fun c ->
        if List.memq c s.conns && List.mem c.c_fd readable then pump s c)
      s.conns;
    perform s (feed s Core.Tick);
    loop s ~max_wait ~round ~stop
  end

let shutdown s =
  if not (Core.draining s.core) then close_quiet s.listener;
  perform s (Core.shutdown s.core)

(* Run [f] on a shell around [listener]. SIGPIPE is ignored (a dead
   peer is a failed write) and SIGTERM starts the drain, its previous
   handler restored after. *)
let with_shell ?chaos cfg ~lookup listener f =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Unix.set_nonblock listener;
  let s =
    {
      cfg;
      core = Core.create ?chaos cfg ~lookup ~now:(now ());
      listener;
      conns = [];
      next_id = 0;
      term = ref false;
    }
  in
  let prev =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> s.term := true))
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown s;
      Sys.set_signal Sys.sigterm prev)
    (fun () -> f s)

let serve ?on_listen cfg ~lookup addr =
  match Net.listen addr with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s"
           (Net.string_of_sockaddr addr)
           (Unix.error_message err))
  | listener, port ->
      with_shell cfg ~lookup listener @@ fun s ->
      Option.iter (fun f -> f port) on_listen;
      match loop s ~max_wait:1.0 ~round:ignore ~stop:(fun () -> false) with
      | () -> Ok ()
      | exception exn -> Error (Printexc.to_string exn)

(* {2 Private fleet}

   [--dist N]: the same loop, listening on a private Unix-domain socket
   ({!Net.listen_private}) on the caller's own domain, serving one job
   to N forked [work --connect] children of [exe]. No other user can
   dial the socket, so no forged worker can join and return well-formed
   but false payloads. The job is registered directly — no client
   socket, and the caller's plan is the only one expanded on this
   side. A child that exits is replaced, so the run never waits on zero
   workers; children that keep exiting while the job stands still abort
   the run instead of looping forever. *)

type fleet_stats = Core.fleet_stats

exception Fleet_failed of string

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let run_fleet cfg ~workers ~exe ?chaos_kill_shard ?resume ~job inst =
  match Net.listen_private () with
  | exception Unix.Unix_error (err, _, _) ->
      Error ("cannot open a private socket: " ^ Unix.error_message err)
  | exception Sys_error m -> Error ("cannot open a private socket: " ^ m)
  | listener, path, remove -> (
      Fun.protect ~finally:remove @@ fun () ->
      let size = max 1 workers in
      let args = [| exe; "work"; "--connect"; path; "--log-level"; "warn" |] in
      let pids = ref [] and spawned = ref 0 in
      (* Child exits since the job last progressed, and that progress. *)
      let deaths = ref 0 and progress = ref 0 in
      let result =
        (* Installed before the journal exists: once a job id is on
           disk, SIGTERM suspends it rather than killing the process. *)
        with_shell ?chaos:chaos_kill_shard cfg
          ~lookup:(fun _ -> Error "this queue serves a single private job")
          listener
        @@ fun s ->
        match Core.admit s.core ~now:(now ()) ?resume ~job inst with
        | Error m -> Error m
        | Ok jb -> (
            let stats () = Core.fleet_stats jb ~spawned:!spawned in
            let r = stats () in
            Svm.Log.debugf cfg.log
              "job %s: %d shard(s) of %d cell(s), %d resumed, %d worker(s)"
              r.job_id r.shards r.shard_size r.resumed workers;
            let tend () =
              let executed = (stats ()).executed in
              if executed > !progress then begin
                progress := executed;
                deaths := 0
              end;
              pids :=
                List.filter
                  (fun pid ->
                    match Unix.waitpid [ Unix.WNOHANG ] pid with
                    | 0, _ -> true
                    | _, status ->
                        incr deaths;
                        Svm.Log.warnf cfg.log "worker process %d %s" pid
                          (match status with
                          | Unix.WEXITED c ->
                              Printf.sprintf "exited with code %d" c
                          | Unix.WSIGNALED n | Unix.WSTOPPED n ->
                              Printf.sprintf "died of signal %d" n);
                        false
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
                    | exception Unix.Unix_error _ -> false)
                  !pids;
              if !deaths > (2 * size) + 4 then
                raise
                  (Fleet_failed
                     "worker processes keep exiting without progress — is \
                      the worker binary runnable?");
              if not (Core.draining s.core) then
                while List.length !pids < size do
                  let pid =
                    Unix.create_process exe args Unix.stdin Unix.stderr
                      Unix.stderr
                  in
                  pids := pid :: !pids;
                  incr spawned;
                  Svm.Log.debugf cfg.log "spawned worker process %d" pid
                done
            in
            (* Short waits: a child that dies before dialing shows up in
               [waitpid], not on any socket. *)
            match
              loop s ~max_wait:0.1 ~round:tend ~stop:(fun () ->
                  Core.outcome jb <> `Running)
            with
            | () -> Ok (Core.outcome jb, stats ())
            | exception Fleet_failed m -> Error m
            | exception exn -> Error (Printexc.to_string exn))
      in
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !pids;
      match result with
      | Error m | Ok (`Failed m, _) -> Error m
      | Ok (`Complete payloads, stats) -> Ok (`Complete payloads, stats)
      | Ok (`Running, stats) -> Ok (`Suspended stats.job_id, stats))
