module Json = Svm.Json
module Metrics = Svm.Metrics
module Log = Svm.Log

type config = {
  fingerprint : string;
  chaos : Net.chaos option;
  max_failures : int;
  backoff_base : float;
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

(* Back off before reconnect attempt [failures] (1-based), full-jitter,
   never longer than [backoff_cap] seconds. *)
let backoff_cap = 5.0

let backoff cfg rng failures =
  if failures > 0 then
    Unix.sleepf
      (Policy.reconnect_delay ~base:cfg.backoff_base ~cap:backoff_cap
         ~attempt:(failures - 1)
         ~rand:(Random.State.float rng 1.0))

type dial_error =
  | Unreachable of string  (** the dial failed *)
  | Rejected of string  (** a typed handshake refusal: never retried *)
  | Handshake of string  (** the link failed mid-handshake *)

(* One dial and handshake. *)
let establish cfg ~role addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match Net.dial ~timeout:cfg.dial_timeout addr with
  | Error m -> Error (Unreachable m)
  | Ok fd -> (
      match Net.client_handshake fd ~role ~fingerprint:cfg.fingerprint with
      | Ok () -> Ok fd
      | Error e ->
          close_quiet fd;
          Error
            (match e with
            | Net.Hs_rejected m -> Rejected m
            | Net.Hs_link m -> Handshake m))

(* Dial + handshake, driving the shared bounded-reconnect state.
   [session fd] runs until it raises [Link] (reconnect) or [Quit]. *)
let connect_loop cfg ~role addr session =
  let rng = Random.State.make_self_init () in
  let failures = ref 0 in
  let retry what m =
    incr failures;
    warnf cfg "%s failed (%s); attempt %d" what m !failures
  in
  let rec go () =
    if !failures > cfg.max_failures then begin
      Log.errorf cfg.log "giving up after %d consecutive connection failures"
        !failures;
      Error
        (Printf.sprintf "no usable connection after %d attempts" !failures)
    end
    else begin
      backoff cfg rng !failures;
      match establish cfg ~role addr with
      | Error (Unreachable m) when Net.refused addr ->
          (* A Unix-domain queue is private to one run: once nothing
             listens on its path, no redial can bring it back. *)
          Error
            (Printf.sprintf "nothing listens on %s: %s"
               (Net.string_of_sockaddr addr) m)
      | Error (Unreachable m) ->
          retry "connect" m;
          go ()
      | Error (Rejected m) -> Error (Printf.sprintf "server rejected us: %s" m)
      | Error (Handshake m) ->
          retry "handshake" m;
          go ()
      | Ok fd -> (
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
              raise exn)
    end
  in
  go ()

(* One frame out, through the chaos harness when configured (workers
   only); a failed write is a lost link. *)
let send cfg fd encode msg =
  try Net.chaos_write ?chaos:cfg.chaos fd (encode msg) with
  | Net.Chaos_cut ->
      Metrics.bump cfg.metrics "worker_chaos_cuts_total";
      raise (Link "chaos cut the connection")
  | Unix.Unix_error (e, _, _) -> raise (Link (Unix.error_message e))

(* One frame in, decoded; a silent, torn or undecodable frame is a lost
   link. *)
let recv cfg fd decode =
  match Frame.read ~timeout:cfg.read_timeout fd with
  | Error e -> raise (frame_error e)
  | Ok v -> (
      match decode v with
      | Ok m -> m
      | Error m -> raise (Link ("undecodable server frame: " ^ m)))

(* ------------------------------------------------------------------ *)
(* Remote worker                                                        *)
(* ------------------------------------------------------------------ *)

(* The job table holds the plans of live jobs only: the server announces
   a job before its first shard and says when it is over, so a worker
   serving jobs for days holds what it is working on, not what it has
   ever seen. [worker_jobs_open] rides the metrics push.

   A worker speaks only when spoken to: job-ok/err to a job, a pong to a
   ping, a result to an assignment. The pong doubles as the metrics
   push: every pong carries this worker's full registry snapshot
   (cumulative, so the server just keeps the latest), so telemetry costs
   zero extra frames and stops exactly when the worker does — staleness
   is the failure signal. *)
let worker_session cfg ~lookup fd =
  let send = send cfg fd Proto.net_from_worker_to_json in
  let recv () = recv cfg fd Proto.net_to_worker_of_json in
  let jobs : (string, Worker.instance * string) Hashtbl.t = Hashtbl.create 4 in
  let gauge () =
    Metrics.record cfg.metrics "worker_jobs_open" (Hashtbl.length jobs)
  in
  let job_ok jid inst =
    send (Proto.Nf_job_ok { jid; cells = Worker.cells_of_instance inst })
  in
  let open_job jid job =
    match Hashtbl.find_opt jobs jid with
    | Some (inst, _) -> job_ok jid inst
    | None -> (
        match lookup job with
        | Ok inst ->
            Hashtbl.replace jobs jid
              (inst, Span.job_tag (Proto.job_fingerprint job));
            gauge ();
            Metrics.bump cfg.metrics "worker_jobs_opened_total";
            logf cfg "opened job %s (%d cells)" jid
              (Worker.cells_of_instance inst);
            job_ok jid inst
        | Error msg ->
            warnf cfg "cannot open job %s: %s" jid msg;
            send (Proto.Nf_job_err { jid; msg }))
  in
  let rec handle ~busy = function
    | Proto.Nw_ping ->
        send
          (Proto.Nf_pong { metrics = Option.map Metrics.snapshot cfg.metrics })
    | Proto.Nw_shutdown -> raise (Quit 0)
    | Proto.Nw_job { jid; job } -> open_job jid job
    | Proto.Nw_job_over { jid } ->
        Hashtbl.remove jobs jid;
        gauge ();
        debugf cfg "closed job %s" jid
    | Proto.Nw_assign _ when busy -> raise (Link "assigned a shard while busy")
    | Proto.Nw_assign { jid; shard; lo; hi } -> (
        let recv_start = Span.now_us () in
        match Hashtbl.find_opt jobs jid with
        | None -> raise (Link "assigned a job we never opened")
        | Some (inst, tag) ->
            debugf cfg "job %s shard %d [%d,%d) assigned" jid shard lo hi;
            Span.emit cfg.spans ~phase:"receive" ~job:tag ~shard
              ~start_us:recv_start;
            let exec_start = Span.now_us () in
            let payload = Worker.compute_shard inst ~lo ~hi ~tick:poll in
            Span.emit cfg.spans ~phase:"execute" ~job:tag ~shard
              ~start_us:exec_start;
            let reply_start = Span.now_us () in
            send (Proto.Nf_result { jid; shard; payload });
            Span.emit cfg.spans ~phase:"reply" ~job:tag ~shard
              ~start_us:reply_start;
            Metrics.bump cfg.metrics "worker_shards_total";
            Metrics.bump cfg.metrics ~by:(hi - lo) "worker_cells_total")
  (* Between cells of a long shard, answer pings (and honour shutdown)
     so the server's heartbeats survive slow compute. *)
  and poll () =
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> ()
    | _ -> handle ~busy:true (recv ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec loop () =
    handle ~busy:false (recv ());
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

(* The client's side of the link: frames to and from the server. *)
let client_link cfg fd =
  ( send cfg fd Proto.client_to_server_to_json,
    fun () -> recv cfg fd Proto.server_to_client_of_json )

let submit ?metrics ?resume cfg ~instance ~job addr =
  let units = Worker.cells_of_instance instance in
  (* Survives reconnects: once accepted, later sessions resume by id
     and re-receive the journalled backlog (idempotent stores). *)
  let jid = ref resume in
  let shard_size = ref 0 in
  let payloads = ref [||] in
  let reconnects = ref (-1) in
  let tag = Span.job_tag (Proto.job_fingerprint job) in
  let session fd =
    incr reconnects;
    let send, recv = client_link cfg fd in
    let submit_start = Span.now_us () in
    send (Proto.Cs_submit { job; resume = !jid });
    Span.emit cfg.spans ~phase:"submit" ~job:tag ~shard:(-1)
      ~start_us:submit_start;
    let rec loop () =
      (match recv () with
      | Proto.Sc_ping -> send Proto.Cs_pong
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
            payloads :=
              Array.make (Worker.shard_count ~units ~shard_size:ss) None
          end
          else if ss <> !shard_size then
            raise
              (Refused
                 (Printf.sprintf "job %s shard size changed from %d to %d" j
                    !shard_size ss))
      | Proto.Sc_shard { shard; payload } ->
          if shard >= 0 && shard < Array.length !payloads then begin
            let collect_start = Span.now_us () in
            let lo, hi =
              Worker.shard_range ~units ~shard_size:!shard_size shard
            in
            match Worker.check_payload instance ~lo ~hi payload with
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
  match establish cfg ~role:Proto.Client_role addr with
  | Error (Unreachable m) -> Error (Printf.sprintf "cannot reach server: %s" m)
  | Error (Rejected m) -> Error (Printf.sprintf "server rejected us: %s" m)
  | Error (Handshake m) -> Error (Printf.sprintf "handshake failed: %s" m)
  | Ok fd -> (
      let send, recv = client_link cfg fd in
      let query () =
        send Proto.Cs_stats;
        (* Answer heartbeats while waiting: the reply races the
           server's ping cadence on a busy queue. *)
        let rec wait () =
          match recv () with
          | Proto.Sc_ping ->
              send Proto.Cs_pong;
              wait ()
          | Proto.Sc_stats doc -> Ok doc
          | Proto.Sc_draining -> Error "server is draining"
          | Proto.Sc_rejected m | Proto.Sc_failed m -> Error m
          | Proto.Sc_accepted _ | Proto.Sc_shard _ | Proto.Sc_done _ -> wait ()
        in
        wait ()
      in
      match Fun.protect ~finally:(fun () -> close_quiet fd) query with
      | r -> r
      | exception Link m -> Error (Printf.sprintf "link lost: %s" m))
