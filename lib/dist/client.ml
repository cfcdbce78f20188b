module Json = Svm.Json
module Metrics = Svm.Metrics
module Log = Svm.Log

type config = {
  fingerprint : string;
  chaos : Net.chaos option;
  max_failures : int;
  backoff_base : float;
  backoff_cap : float;
  dial_timeout : float;
  read_timeout : float;
  log : Log.t;
  metrics : Metrics.t option;
  spans : Span.t option;
}

let default_config ~fingerprint () =
  {
    fingerprint;
    chaos = None;
    max_failures = 8;
    backoff_base = 0.2;
    backoff_cap = 5.0;
    dial_timeout = 10.;
    read_timeout = 60.;
    log = Log.null;
    metrics = None;
    spans = None;
  }

let logf cfg fmt = Log.infof cfg.log fmt
let warnf cfg fmt = Log.warnf cfg.log fmt
let debugf cfg fmt = Log.debugf cfg.log fmt

(* A connection-level failure: close, back off, reconnect. *)
exception Link of string

(* Clean end of service with this process exit code. *)
exception Quit of int

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let frame_error e = Link (Format.asprintf "%a" Frame.pp_error e)

(* Back off before reconnect attempt [failures] (1-based), full-jitter. *)
let backoff cfg rng failures =
  if failures > 0 then
    Unix.sleepf
      (Policy.reconnect_delay ~base:cfg.backoff_base ~cap:cfg.backoff_cap
         ~attempt:(failures - 1)
         ~rand:(Random.State.float rng 1.0))

(* Dial + handshake, driving the shared bounded-reconnect state.
   [session fd] runs until it raises [Link] (reconnect) or [Quit]. *)
let connect_loop cfg ~role addr session =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rng = Random.State.make_self_init () in
  let failures = ref 0 in
  let rec go () =
    if !failures > cfg.max_failures then begin
      Log.errorf cfg.log "giving up after %d consecutive connection failures"
        !failures;
      Error
        (Printf.sprintf "no usable connection after %d attempts" !failures)
    end
    else begin
      backoff cfg rng !failures;
      match Net.dial ~timeout:cfg.dial_timeout addr with
      | Error m when Net.refused addr ->
          (* A Unix-domain queue is private to one run: once nothing
             listens on its path, no redial can bring it back. *)
          Error
            (Printf.sprintf "nothing listens on %s: %s"
               (Net.string_of_sockaddr addr) m)
      | Error m ->
          incr failures;
          warnf cfg "connect failed (%s); attempt %d" m !failures;
          go ()
      | Ok fd -> (
          match
            Net.client_handshake fd ~role ~fingerprint:cfg.fingerprint
          with
          | Error (Net.Hs_rejected m) ->
              close_quiet fd;
              Error (Printf.sprintf "server rejected us: %s" m)
          | Error (Net.Hs_link m) ->
              close_quiet fd;
              incr failures;
              warnf cfg "handshake failed (%s); attempt %d" m !failures;
              go ()
          | Ok () -> (
              failures := 0;
              match session fd with
              | () ->
                  close_quiet fd;
                  incr failures;
                  go ()
              | exception Link m ->
                  close_quiet fd;
                  incr failures;
                  Metrics.bump cfg.metrics "net_link_losses_total";
                  warnf cfg "link lost (%s); reconnecting" m;
                  go ()
              | exception Quit code ->
                  close_quiet fd;
                  Ok code
              | exception exn ->
                  close_quiet fd;
                  raise exn))
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Remote worker                                                        *)
(* ------------------------------------------------------------------ *)

let worker_send cfg fd msg =
  try Net.chaos_write ?chaos:cfg.chaos fd (Proto.net_from_worker_to_json msg)
  with
  | Net.Chaos_cut ->
      Metrics.bump cfg.metrics "worker_chaos_cuts_total";
      raise (Link "chaos cut the connection")
  | Unix.Unix_error (e, _, _) -> raise (Link (Unix.error_message e))

(* The heartbeat answer doubles as the metrics push: every pong carries
   this worker's full registry snapshot (cumulative, so the server just
   keeps the latest). Piggybacking on the cadence the server already
   enforces means telemetry costs zero extra frames and stops exactly
   when the worker does — staleness is the failure signal. *)
let worker_pong cfg fd =
  worker_send cfg fd
    (Proto.Nf_pong { metrics = Option.map Metrics.snapshot cfg.metrics })

let worker_recv cfg fd =
  match Frame.read ~timeout:cfg.read_timeout fd with
  | Ok v -> (
      match Proto.net_to_worker_of_json v with
      | Ok m -> m
      | Error m -> raise (Link ("undecodable server frame: " ^ m)))
  | Error e -> raise (frame_error e)

(* The job table holds the plans of live jobs only: the server announces
   a job before its first shard and says when it is over, so a worker
   serving jobs for days holds what it is working on, not what it has
   ever seen. [worker_jobs_open] rides the metrics push. *)
let worker_session cfg ~lookup fd =
  let jobs : (string, Worker.instance * string) Hashtbl.t = Hashtbl.create 4 in
  let gauge () =
    Metrics.record cfg.metrics "worker_jobs_open" (Hashtbl.length jobs)
  in
  let close_job jid =
    Hashtbl.remove jobs jid;
    gauge ();
    debugf cfg "closed job %s" jid
  in
  let open_job jid job =
    match Hashtbl.find_opt jobs jid with
    | Some (inst, _) ->
        worker_send cfg fd
          (Proto.Nf_job_ok { jid; cells = Worker.cells_of_instance inst })
    | None -> (
        match lookup job with
        | Ok inst ->
            Hashtbl.replace jobs jid
              (inst, Span.job_tag (Proto.job_fingerprint job));
            gauge ();
            Metrics.bump cfg.metrics "worker_jobs_opened_total";
            logf cfg "opened job %s (%d cells)" jid
              (Worker.cells_of_instance inst);
            worker_send cfg fd
              (Proto.Nf_job_ok { jid; cells = Worker.cells_of_instance inst })
        | Error msg ->
            warnf cfg "cannot open job %s: %s" jid msg;
            worker_send cfg fd (Proto.Nf_job_err { jid; msg }))
  in
  (* Between cells of a long shard, answer pings (and honour shutdown)
     so the server's heartbeats survive slow compute. *)
  let poll_control () =
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> ()
    | _ -> (
        match worker_recv cfg fd with
        | Proto.Nw_ping -> worker_pong cfg fd
        | Proto.Nw_shutdown -> raise (Quit 0)
        | Proto.Nw_job { jid; job } -> open_job jid job
        | Proto.Nw_job_over { jid } -> close_job jid
        | Proto.Nw_assign _ -> raise (Link "assigned a shard while busy"))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec loop () =
    (match worker_recv cfg fd with
    | Proto.Nw_ping -> worker_pong cfg fd
    | Proto.Nw_shutdown -> raise (Quit 0)
    | Proto.Nw_job { jid; job } -> open_job jid job
    | Proto.Nw_job_over { jid } -> close_job jid
    | Proto.Nw_assign { jid; shard; lo; hi } -> (
        let recv_start = Span.now_us () in
        match Hashtbl.find_opt jobs jid with
        | None -> raise (Link "assigned a job we never opened")
        | Some (inst, tag) ->
            debugf cfg "job %s shard %d [%d,%d) assigned" jid shard lo hi;
            Span.emit cfg.spans ~phase:"receive" ~job:tag ~shard
              ~start_us:recv_start;
            let tick completed =
              worker_send cfg fd (Proto.Nf_progress { jid; shard; completed });
              poll_control ()
            in
            let exec_start = Span.now_us () in
            let payload = Worker.compute_shard inst ~lo ~hi ~tick in
            Span.emit cfg.spans ~phase:"execute" ~job:tag ~shard
              ~start_us:exec_start;
            let reply_start = Span.now_us () in
            worker_send cfg fd (Proto.Nf_result { jid; shard; payload });
            Span.emit cfg.spans ~phase:"reply" ~job:tag ~shard
              ~start_us:reply_start;
            Metrics.bump cfg.metrics "worker_shards_total";
            Metrics.bump cfg.metrics ~by:(hi - lo) "worker_cells_total"));
    loop ()
  in
  loop ()

let worker_loop cfg ~lookup addr =
  match
    connect_loop cfg ~role:Proto.Worker_role addr (fun fd ->
        worker_session cfg ~lookup fd)
  with
  | Ok code -> code
  | Error m ->
      logf cfg "%s" m;
      1

(* ------------------------------------------------------------------ *)
(* Submitting client                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = Merge.outcome =
  | Sweep_outcome of Svm.Explore.sweep_outcome
  | Explore_outcome of Svm.Univ.t Svm.Explore.result

type submission = Finished of outcome | Suspended of string

type stats = {
  job_id : string;
  shards : int;
  shard_size : int;
  resumed : int;
  executed : int;
  reconnects : int;
}

(* Terminal job verdicts cross the reconnect loop as exceptions. *)
exception Done of int * int  (* executed, resumed *)
exception Refused of string
exception Draining

let client_send fd msg =
  try Frame.write fd (Proto.client_to_server_to_json msg)
  with Unix.Unix_error (e, _, _) -> raise (Link (Unix.error_message e))

let client_recv cfg fd =
  match Frame.read ~timeout:cfg.read_timeout fd with
  | Ok v -> (
      match Proto.server_to_client_of_json v with
      | Ok m -> m
      | Error m -> raise (Link ("undecodable server frame: " ^ m)))
  | Error e -> raise (frame_error e)

let submit ?metrics ?resume cfg ~instance ~job addr =
  let units = Worker.cells_of_instance instance in
  let check =
    match instance with
    | Worker.Sweep_instance _ -> Proto.check_sweep_payload
    | Worker.Explore_instance _ -> Proto.check_explore_payload
  in
  (* Survives reconnects: once accepted, later sessions resume by id
     and re-receive the journalled backlog (idempotent stores). *)
  let jid = ref resume in
  let shard_size = ref 0 in
  let payloads = ref [||] in
  let reconnects = ref (-1) in
  let tag = Span.job_tag (Proto.job_fingerprint job) in
  let session fd =
    incr reconnects;
    let submit_start = Span.now_us () in
    client_send fd (Proto.Cs_submit { job; resume = !jid });
    Span.emit cfg.spans ~phase:"submit" ~job:tag ~shard:(-1)
      ~start_us:submit_start;
    let rec loop () =
      (match client_recv cfg fd with
      | Proto.Sc_ping -> client_send fd Proto.Cs_pong
      | Proto.Sc_stats _ -> ()
      | Proto.Sc_rejected m -> raise (Refused m)
      | Proto.Sc_failed m -> raise (Refused m)
      | Proto.Sc_draining -> raise Draining
      | Proto.Sc_done { executed; resumed } -> raise (Done (executed, resumed))
      | Proto.Sc_accepted { jid = j; cells; shard_size = ss } ->
          if cells <> units then
            raise
              (Refused
                 (Printf.sprintf
                    "server planned %d cells but the local plan has %d — \
                     registries disagree"
                    cells units));
          (match !jid with
          | Some prev when prev <> j ->
              raise (Refused (Printf.sprintf "server renamed job %s to %s" prev j))
          | _ -> ());
          jid := Some j;
          if !payloads = [||] then begin
            shard_size := ss;
            let nshards = if units = 0 then 0 else (units + ss - 1) / ss in
            payloads := Array.make nshards None
          end
          else if ss <> !shard_size then
            raise
              (Refused
                 (Printf.sprintf "job %s shard size changed from %d to %d" j
                    !shard_size ss))
      | Proto.Sc_shard { shard; payload } ->
          if shard >= 0 && shard < Array.length !payloads then begin
            let collect_start = Span.now_us () in
            let lo = shard * !shard_size in
            let hi = min units ((shard + 1) * !shard_size) in
            match check ~lo ~hi payload with
            | Ok _ ->
                !payloads.(shard) <- Some payload;
                Span.emit cfg.spans ~phase:"collect" ~job:tag ~shard
                  ~start_us:collect_start
            | Error m -> raise (Link ("bad shard payload from server: " ^ m))
          end);
      loop ()
    in
    loop ()
  in
  let finish verdict =
    let executed, resumed =
      match verdict with `Done (e, r) -> (e, r) | `Drain -> (0, 0)
    in
    let stats jid =
      {
        job_id = jid;
        shards = Array.length !payloads;
        shard_size = !shard_size;
        resumed;
        executed;
        reconnects = max 0 !reconnects;
      }
    in
    match (verdict, !jid) with
    | `Drain, Some id -> Ok (Suspended id, stats id)
    | `Drain, None -> Error "server is draining"
    | `Done _, None -> Error "finished without a job id"
    | `Done _, Some id ->
        Ok
          ( Finished
              (Merge.instance ?metrics instance ~shard_size:!shard_size
                 ~payloads:!payloads),
            stats id )
  in
  match connect_loop cfg ~role:Proto.Client_role addr session with
  | Ok _ -> Error "server shut the session down before the job finished"
  | Error m -> Error m
  | exception Done (e, r) -> finish (`Done (e, r))
  | exception Draining -> finish `Drain
  | exception Refused m -> Error m

(* ------------------------------------------------------------------ *)
(* One-shot stats query (the [asmsim top] backend)                      *)
(* ------------------------------------------------------------------ *)

(* Single dial, no reconnect loop: a status probe that cannot reach the
   server should say so immediately, not back off for seconds — [top]
   refreshes soon anyway and scripts want a crisp failure. *)
let stats_query cfg addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match Net.dial ~timeout:cfg.dial_timeout addr with
  | Error m -> Error (Printf.sprintf "cannot reach server: %s" m)
  | Ok fd -> (
      let query () =
        match
          Net.client_handshake fd ~role:Proto.Client_role
            ~fingerprint:cfg.fingerprint
        with
        | Error (Net.Hs_rejected m) ->
            Error (Printf.sprintf "server rejected us: %s" m)
        | Error (Net.Hs_link m) ->
            Error (Printf.sprintf "handshake failed: %s" m)
        | Ok () ->
            client_send fd Proto.Cs_stats;
            (* Answer heartbeats while waiting: the reply races the
               server's ping cadence on a busy queue. *)
            let rec wait () =
              match client_recv cfg fd with
              | Proto.Sc_ping ->
                  client_send fd Proto.Cs_pong;
                  wait ()
              | Proto.Sc_stats doc -> Ok doc
              | Proto.Sc_draining -> Error "server is draining"
              | Proto.Sc_rejected m | Proto.Sc_failed m -> Error m
              | Proto.Sc_accepted _ | Proto.Sc_shard _ | Proto.Sc_done _ ->
                  wait ()
            in
            wait ()
      in
      match Fun.protect ~finally:(fun () -> close_quiet fd) query with
      | r -> r
      | exception Link m -> Error (Printf.sprintf "link lost: %s" m))
