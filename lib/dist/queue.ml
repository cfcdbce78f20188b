module Json = Svm.Json
module Metrics = Svm.Metrics
module Log = Svm.Log

type config = {
  fingerprint : string;
  shard_size : int option;
  shard_timeout : float;
  heartbeat_timeout : float;
  handshake_timeout : float;
  frame_stall_timeout : float;
  rate_limit : int;
  max_retries : int;
  backoff : float;
  journal_dir : string;
  fsync : bool;
  log : Log.t;
  metrics : Metrics.t option;
  spans : Span.t option;
}

let default_config ~fingerprint () =
  {
    fingerprint;
    shard_size = None;
    shard_timeout = 120.;
    heartbeat_timeout = 20.;
    handshake_timeout = 5.;
    frame_stall_timeout = 10.;
    rate_limit = 64 * 1024 * 1024;
    (* Remote workers under chaos lose shards routinely; the hostile
       bound must stay a pathology detector, not a chaos tripwire. *)
    max_retries = 10;
    backoff = 0.05;
    journal_dir = Journal.default_dir;
    fsync = false;
    log = Log.null;
    metrics = None;
    spans = None;
  }

(* {2 State} *)

type wstate = W_idle | W_busy of { jid : string; shard : int; deadline : float }

type wsess = {
  ws_announced : (string, unit) Hashtbl.t;
  ws_acked : (string, unit) Hashtbl.t;
  mutable ws_state : wstate;
  mutable ws_push : Metrics.t option;
      (** last metrics registry this worker pushed on a pong *)
}

type csess = { mutable cs_watching : string option }

type psort = Pending of float | Worker_peer of wsess | Client_peer of csess

type peer = {
  p_id : int;
  p_fd : Unix.file_descr;
  p_dec : Frame.decoder;
  p_name : string;
  mutable p_sort : psort;
  mutable p_last : float;
  mutable p_pinged : bool;
  mutable p_alive : bool;
  mutable p_win_start : float;
  mutable p_win_bytes : int;
  mutable p_bytes_in : int;
  mutable p_frames_in : int;
  mutable p_frames_out : int;
}

type shard_state = Sh_pending | Sh_running of int | Sh_done

type shard = {
  sh_id : int;
  sh_lo : int;
  sh_hi : int;
  mutable sh_state : shard_state;
  mutable sh_not_before : float;
  mutable sh_attempts : int;
}

type job = {
  jb_id : string;
  jb_job : Proto.job;
  jb_fp : string;
  jb_tag : string;  (** span-correlation tag: digest of the fingerprint *)
  jb_units : int;
  jb_shard_size : int;
  jb_check : lo:int -> hi:int -> Json.t -> (int option, string) result;
  jb_shards : shard array;
  jb_payloads : Json.t option array;
  jb_journal : Journal.t;
  mutable jb_cut : int;
  mutable jb_resumed : int;
  mutable jb_executed : int;
  mutable jb_watchers : int list;
  mutable jb_over : [ `Done | `Failed of string ] option;
}

type engine = {
  cfg : config;
  lookup : Proto.job -> (Worker.instance, string) result;
  listener : Unix.file_descr;
  term : bool ref;
  jobs : (string, job) Hashtbl.t;
  mutable order : string list;  (** active job ids, FIFO arrival order *)
  mutable peers : peer list;
  mutable next_pid : int;
  mutable draining : bool;
  started : float;  (** wall clock at serve start, for health uptime *)
  departed : Metrics.t;
      (** pushed registries of disconnected workers, folded in so fleet
          totals never shrink when a peer leaves *)
  mutable chaos : (int * int) option;
      (** fault hook of a private run: [(shard, n)] cuts the link of the
          worker dealt that shard, the next [n] times it is dealt *)
}

let now () = Unix.gettimeofday ()

let logf e fmt = Log.infof e.cfg.log fmt
let warnf e fmt = Log.warnf e.cfg.log fmt
let debugf e fmt = Log.debugf e.cfg.log fmt

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let find_peer e pid = List.find_opt (fun p -> p.p_id = pid) e.peers

let gauge_peers e =
  Metrics.record e.cfg.metrics "net_peers" (List.length e.peers);
  Metrics.record e.cfg.metrics "net_jobs_active" (Hashtbl.length e.jobs)

(* Shards the in-order merge still needs: not done, not past the cut. *)
let remaining jb =
  Array.fold_left
    (fun acc sh ->
      if sh.sh_state <> Sh_done && sh.sh_lo <= jb.jb_cut then acc + 1 else acc)
    0 jb.jb_shards

let queue_depth e = Hashtbl.fold (fun _ jb acc -> acc + remaining jb) e.jobs 0

(* {2 Peer lifecycle, shard loss, job verdicts}

   These are mutually recursive: losing a peer requeues its shard,
   which can turn a job hostile, which notifies watcher clients, whose
   writes can fail and lose further peers. *)

let rec peer_gone e p ~reason =
  if p.p_alive then begin
    p.p_alive <- false;
    e.peers <- List.filter (fun x -> x.p_id <> p.p_id) e.peers;
    close_quiet p.p_fd;
    warnf e "%s is gone: %s" p.p_name reason;
    gauge_peers e;
    (* Keep what the worker told us about itself: its last pushed
       registry folds into the departed pool so fleet totals survive
       the disconnect. *)
    (match p.p_sort with
    | Worker_peer { ws_push = Some m; _ } -> Metrics.merge ~into:e.departed m
    | _ -> ());
    match p.p_sort with
    | Pending _ -> ()
    | Client_peer c -> (
        match c.cs_watching with
        | None -> ()
        | Some jid -> (
            c.cs_watching <- None;
            match Hashtbl.find_opt e.jobs jid with
            | None -> ()
            | Some jb ->
                jb.jb_watchers <-
                  List.filter (fun id -> id <> p.p_id) jb.jb_watchers))
    | Worker_peer w -> (
        match w.ws_state with
        | W_idle -> ()
        | W_busy { jid; shard; _ } -> shard_lost e ~jid ~shard)
  end

and shard_lost e ~jid ~shard =
  match Hashtbl.find_opt e.jobs jid with
  | None -> ()
  | Some jb -> (
      let sh = jb.jb_shards.(shard) in
      match sh.sh_state with
      | Sh_running _ -> (
          sh.sh_attempts <- sh.sh_attempts + 1;
          Metrics.bump e.cfg.metrics "net_shard_retries_total";
          Metrics.sample e.cfg.metrics "net_shard_retry_ladder" sh.sh_attempts;
          match
            Policy.retry ~max_retries:e.cfg.max_retries ~base:e.cfg.backoff
              ~attempts:sh.sh_attempts
          with
          | Policy.Requeue delay ->
              sh.sh_state <- Sh_pending;
              sh.sh_not_before <- now () +. delay;
              warnf e "job %s shard %d back in the queue (lost attempt %d)" jid
                sh.sh_id sh.sh_attempts
          | Policy.Hostile ->
              Journal.append_hostile jb.jb_journal ~shard:sh.sh_id;
              job_over e jb
                (`Failed
                  (Printf.sprintf
                     "shard %d [%d,%d) is hostile: it took down %d workers"
                     sh.sh_id sh.sh_lo sh.sh_hi sh.sh_attempts)))
      | Sh_pending | Sh_done -> ())

and send_client e p msg =
  if p.p_alive then begin
    try
      Frame.write p.p_fd (Proto.server_to_client_to_json msg);
      p.p_frames_out <- p.p_frames_out + 1;
      Metrics.bump e.cfg.metrics "net_frames_out_total"
    with Unix.Unix_error (err, _, _) ->
      peer_gone e p ~reason:("write failed: " ^ Unix.error_message err)
  end

and send_worker e p msg =
  if p.p_alive then begin
    try
      Frame.write p.p_fd (Proto.net_to_worker_to_json msg);
      p.p_frames_out <- p.p_frames_out + 1;
      Metrics.bump e.cfg.metrics "net_frames_out_total"
    with Unix.Unix_error (err, _, _) ->
      peer_gone e p ~reason:("write failed: " ^ Unix.error_message err)
  end

and job_over e jb verdict =
  let msg =
    match verdict with
    | `Done -> Proto.Sc_done { executed = jb.jb_executed; resumed = jb.jb_resumed }
    | `Failed m ->
        warnf e "job %s failed: %s" jb.jb_id m;
        Proto.Sc_failed m
  in
  jb.jb_over <- Some verdict;
  let watchers = jb.jb_watchers in
  jb.jb_watchers <- [];
  Hashtbl.remove e.jobs jb.jb_id;
  e.order <- List.filter (fun id -> id <> jb.jb_id) e.order;
  (* A missing cache marker only costs a later re-run. *)
  (if verdict = `Done then
     try Journal.mark_complete jb.jb_journal ~fingerprint:jb.jb_fp
     with Sys_error _ | Unix.Unix_error _ -> ());
  Journal.close jb.jb_journal;
  gauge_peers e;
  (* Every worker that was told about the job may drop its plan. *)
  List.iter
    (fun p ->
      match p.p_sort with
      | Worker_peer w when Hashtbl.mem w.ws_announced jb.jb_id ->
          Hashtbl.remove w.ws_announced jb.jb_id;
          Hashtbl.remove w.ws_acked jb.jb_id;
          send_worker e p (Proto.Nw_job_over { jid = jb.jb_id })
      | _ -> ())
    e.peers;
  List.iter
    (fun pid ->
      match find_peer e pid with
      | None -> ()
      | Some p ->
          (match p.p_sort with
          | Client_peer c -> c.cs_watching <- None
          | _ -> ());
          send_client e p msg)
    watchers;
  if verdict = `Done then
    logf e "job %s complete: %d shard(s) executed, %d resumed" jb.jb_id
      jb.jb_executed jb.jb_resumed

let job_maybe_done e jb = if remaining jb = 0 then job_over e jb `Done

(* {2 Jobs} *)

let announce e jb =
  List.iter
    (fun p ->
      match p.p_sort with
      | Worker_peer w when not (Hashtbl.mem w.ws_announced jb.jb_id) ->
          Hashtbl.replace w.ws_announced jb.jb_id ();
          send_worker e p (Proto.Nw_job { jid = jb.jb_id; job = jb.jb_job })
      | _ -> ())
    e.peers

let make_job ~id ~job ~units ~shard_size ~check ~journal =
  let nshards = if units = 0 then 0 else (units + shard_size - 1) / shard_size in
  let fp = Proto.job_fingerprint job in
  {
    jb_id = id;
    jb_job = job;
    jb_fp = fp;
    jb_tag = Span.job_tag fp;
    jb_units = units;
    jb_shard_size = shard_size;
    jb_check = check;
    jb_shards =
      Array.init nshards (fun i ->
          {
            sh_id = i;
            sh_lo = i * shard_size;
            sh_hi = min units ((i + 1) * shard_size);
            sh_state = Sh_pending;
            sh_not_before = 0.;
            sh_attempts = 0;
          });
    jb_payloads = Array.make nshards None;
    jb_journal = journal;
    jb_cut = max_int;
    jb_resumed = 0;
    jb_executed = 0;
    jb_watchers = [];
    jb_over = None;
  }

let register e jb =
  let admit_start = Span.now_us () in
  Hashtbl.replace e.jobs jb.jb_id jb;
  e.order <- e.order @ [ jb.jb_id ];
  Metrics.bump e.cfg.metrics "net_jobs_total";
  gauge_peers e;
  announce e jb;
  Span.emit e.cfg.spans ~phase:"admit" ~job:jb.jb_tag ~shard:(-1)
    ~start_us:admit_start

(* Accept a validated shard payload into the job: journal it, store it,
   stream it to the watchers, advance the finding cut. *)
let shard_done e jb ~shard ~payload ~finding ~restored =
  let merge_start = Span.now_us () in
  let sh = jb.jb_shards.(shard) in
  sh.sh_state <- Sh_done;
  jb.jb_payloads.(shard) <- Some payload;
  if restored then jb.jb_resumed <- jb.jb_resumed + 1
  else begin
    Journal.append_shard jb.jb_journal ~shard ~payload;
    jb.jb_executed <- jb.jb_executed + 1;
    Metrics.bump e.cfg.metrics "net_shards_executed_total";
    Metrics.bump e.cfg.metrics
      ("net_shards_by_scenario." ^ jb.jb_job.Proto.scenario)
  end;
  (match finding with
  | Some abs when abs < jb.jb_cut ->
      jb.jb_cut <- abs;
      logf e "job %s: finding at cell %d (shard %d); cutting the tail"
        jb.jb_id abs shard
  | _ -> ());
  List.iter
    (fun pid ->
      match find_peer e pid with
      | Some p -> send_client e p (Proto.Sc_shard { shard; payload })
      | None -> ())
    jb.jb_watchers;
  if not restored then
    Span.emit e.cfg.spans ~phase:"merge" ~job:jb.jb_tag ~shard
      ~start_us:merge_start

let attach e p c jb =
  c.cs_watching <- Some jb.jb_id;
  jb.jb_watchers <- p.p_id :: jb.jb_watchers;
  send_client e p
    (Proto.Sc_accepted
       { jid = jb.jb_id; cells = jb.jb_units; shard_size = jb.jb_shard_size });
  Array.iteri
    (fun i sh ->
      if p.p_alive && sh.sh_state = Sh_done then
        match jb.jb_payloads.(i) with
        | Some payload -> send_client e p (Proto.Sc_shard { shard = i; payload })
        | None -> ())
    jb.jb_shards;
  job_maybe_done e jb

let reject_client e p msg =
  send_client e p (Proto.Sc_rejected msg);
  peer_gone e p ~reason:("submit rejected: " ^ msg)

let default_shard_size e ~units =
  match e.cfg.shard_size with
  | Some s -> max 1 s
  | None ->
      let workers =
        List.fold_left
          (fun acc p ->
            match p.p_sort with Worker_peer _ -> acc + 1 | _ -> acc)
          0 e.peers
      in
      Policy.shard_size ~units ~workers

(* {2 Admission}

   A job enters the queue fresh, revived from its journal (resume), or
   answered from a completed journal of the same description (the
   result cache). Revival re-validates every journalled payload exactly
   as if a worker had just sent it; a corrupt entry is simply re-run. *)

let check_of = function
  | Worker.Sweep_instance _ -> Proto.check_sweep_payload
  | Worker.Explore_instance _ -> Proto.check_explore_payload

let fresh e ~job ~inst =
  let units = Worker.cells_of_instance inst in
  let shard_size = default_shard_size e ~units in
  match
    Journal.create ~dir:e.cfg.journal_dir ~fsync:e.cfg.fsync ~job ~cells:units
      ~shard_size ()
  with
  | exception exn ->
      Error ("cannot create journal: " ^ Printexc.to_string exn)
  | journal ->
      Ok
        (make_job ~id:(Journal.id journal) ~job ~units ~shard_size
           ~check:(check_of inst) ~journal)

let revive e ~id ~job ~inst =
  let units = Worker.cells_of_instance inst in
  let ( let* ) = Result.bind in
  let* l = Journal.load ~dir:e.cfg.journal_dir id in
  let* () =
    if Proto.job_fingerprint l.l_job <> Proto.job_fingerprint job then
      Error
        (Printf.sprintf "job %s was journalled for a different job description"
           id)
    else if l.l_cells <> units then
      Error
        (Printf.sprintf "job %s journalled %d cells, the plan has %d" id
           l.l_cells units)
    else if l.l_hostile <> [] then
      Error
        (Printf.sprintf "job %s recorded shard %d as hostile; not resumable" id
           (List.hd l.l_hostile))
    else if l.l_shard_size < 1 then
      Error (Printf.sprintf "job %s journalled a bad shard size" id)
    else Ok ()
  in
  let* journal = Journal.reopen ~dir:e.cfg.journal_dir ~fsync:e.cfg.fsync id in
  let jb =
    make_job ~id ~job ~units ~shard_size:l.l_shard_size ~check:(check_of inst)
      ~journal
  in
  List.iter
    (fun (shard, payload) ->
      if
        shard >= 0
        && shard < Array.length jb.jb_shards
        && jb.jb_shards.(shard).sh_state <> Sh_done
      then
        let sh = jb.jb_shards.(shard) in
        match jb.jb_check ~lo:sh.sh_lo ~hi:sh.sh_hi payload with
        | Ok finding -> shard_done e jb ~shard ~payload ~finding ~restored:true
        | Error _ -> ())
    l.l_done;
  Ok jb

(* The result cache: a fresh submit whose fingerprint names a journal
   marked complete is answered from it — zero shards re-executed — if
   that journal still revives with every shard up to the finding cut
   (a run that found a violation never executed its tail, and never
   needs to). *)
let cached e ~job ~inst =
  match
    Journal.completed_id ~dir:e.cfg.journal_dir
      ~fingerprint:(Proto.job_fingerprint job) ()
  with
  | None -> None
  | Some id when Hashtbl.mem e.jobs id -> None
  | Some id -> (
      match revive e ~id ~job ~inst with
      | Error _ -> None
      | Ok jb when remaining jb > 0 ->
          Journal.close jb.jb_journal;
          None
      | Ok jb ->
          register e jb;
          Metrics.bump e.cfg.metrics "net_cache_hits_total";
          logf e "job %s answered from its completed journal (cache hit, %d \
                  shard(s))"
            id jb.jb_resumed;
          Some jb)

let handle_submit e p c ~job ~resume =
  if c.cs_watching <> None then
    peer_gone e p ~reason:"second submit on one connection"
  else if e.draining then reject_client e p "server is draining"
  else
    match e.lookup job with
    | Error m -> reject_client e p ("cannot expand job: " ^ m)
    | Ok inst -> (
        let fp = Proto.job_fingerprint job in
        let units = Worker.cells_of_instance inst in
        let admitted =
          match resume with
          | Some id -> (
              match Hashtbl.find_opt e.jobs id with
              | Some jb when jb.jb_fp <> fp ->
                  Error
                    (Printf.sprintf "job %s is a different job description" id)
              | Some jb -> Ok jb
              | None ->
                  (* Not live: revive it from its journal. *)
                  Result.map
                    (fun jb ->
                      register e jb;
                      logf e "job %s revived from its journal (%d shard(s) \
                              restored)"
                        id jb.jb_resumed;
                      jb)
                    (revive e ~id ~job ~inst))
          | None -> (
              (* Coalesce identical submissions onto the live job. *)
              let live =
                List.find_map
                  (fun id ->
                    match Hashtbl.find_opt e.jobs id with
                    | Some jb when jb.jb_fp = fp && jb.jb_units = units ->
                        Some jb
                    | _ -> None)
                  e.order
              in
              match live with
              | Some jb ->
                  logf e "coalescing submit onto live job %s" jb.jb_id;
                  Ok jb
              | None -> (
                  match cached e ~job ~inst with
                  | Some jb -> Ok jb
                  | None ->
                      Result.map
                        (fun jb ->
                          register e jb;
                          logf e "job %s accepted: %d cell(s) in %d shard(s)"
                            jb.jb_id units
                            (Array.length jb.jb_shards);
                          jb)
                        (fresh e ~job ~inst)))
        in
        match admitted with
        | Error m -> reject_client e p m
        | Ok jb -> attach e p c jb)

(* {2 Worker messages} *)

let handle_worker_msg e p w msg =
  match msg with
  | Proto.Nf_pong { metrics } -> (
      match metrics with
      | None -> ()
      | Some snap -> (
          (* A worker's pushed registry replaces its previous push (the
             snapshot is cumulative); a malformed push is a protocol
             violation like any other undecodable frame. *)
          match Metrics.of_snapshot snap with
          | Ok reg ->
              w.ws_push <- Some reg;
              Metrics.bump e.cfg.metrics "net_metrics_pushes_total";
              debugf e "%s pushed a metrics snapshot" p.p_name
          | Error m ->
              peer_gone e p ~reason:("bad metrics push: " ^ m)))
  | Proto.Nf_progress { jid; shard; completed } ->
      debugf e "%s: job %s shard %d at %d cell(s)" p.p_name jid shard completed
  | Proto.Nf_job_ok { jid; cells } -> (
      match Hashtbl.find_opt e.jobs jid with
      | None -> ()
      | Some jb ->
          if cells <> jb.jb_units then
            peer_gone e p
              ~reason:
                (Printf.sprintf
                   "planned %d cells for job %s but the server planned %d — \
                    registries disagree"
                   cells jid jb.jb_units)
          else Hashtbl.replace w.ws_acked jid ())
  | Proto.Nf_job_err { jid; msg } ->
      (* The fingerprint matched, so both sides must expand the job the
         same way; a rejection here means they do not. *)
      peer_gone e p ~reason:(Printf.sprintf "rejected job %s: %s" jid msg)
  | Proto.Nf_result { jid; shard; payload } -> (
      match Hashtbl.find_opt e.jobs jid with
      | None -> (
          (* The job ended while the result was in flight: stale. *)
          match w.ws_state with
          | W_busy { jid = j; shard = s; _ } when j = jid && s = shard ->
              w.ws_state <- W_idle
          | _ -> ())
      | Some jb ->
          if shard < 0 || shard >= Array.length jb.jb_shards then
            peer_gone e p ~reason:"result for an unknown shard"
          else begin
            let sh = jb.jb_shards.(shard) in
            let owned =
              match (sh.sh_state, w.ws_state) with
              | Sh_running pid, W_busy { jid = j; shard = s; _ } ->
                  pid = p.p_id && j = jid && s = shard
              | _ -> false
            in
            if not owned then
              peer_gone e p ~reason:"result for a shard it does not own"
            else
              match jb.jb_check ~lo:sh.sh_lo ~hi:sh.sh_hi payload with
              | Error m ->
                  (* Leave the worker busy so its death requeues the
                     shard through the ordinary loss path. *)
                  peer_gone e p
                    ~reason:
                      (Printf.sprintf "bad payload for job %s shard %d: %s"
                         jid shard m)
              | Ok finding ->
                  w.ws_state <- W_idle;
                  shard_done e jb ~shard ~payload ~finding ~restored:false;
                  job_maybe_done e jb
          end)

(* {2 Handshake} *)

let handle_hello e p v =
  let reject msg =
    Metrics.bump e.cfg.metrics "net_handshake_rejects_total";
    (if p.p_alive then
       try Frame.write p.p_fd (Proto.welcome_to_json (Proto.Rejected msg))
       with Unix.Unix_error _ -> ());
    peer_gone e p ~reason:("handshake rejected: " ^ msg)
  in
  match Proto.hello_of_json v with
  | Error m -> reject ("bad hello: " ^ m)
  | Ok h ->
      if e.draining then reject "server is draining"
      else if h.Proto.h_version <> Proto.net_version then
        reject
          (Printf.sprintf "protocol version %d unsupported (this server \
                           speaks %d)"
             h.Proto.h_version Proto.net_version)
      else if h.Proto.h_fingerprint <> e.cfg.fingerprint then
        reject "scenario-registry fingerprint mismatch"
      else begin
        (try Frame.write p.p_fd (Proto.welcome_to_json Proto.Welcome)
         with Unix.Unix_error (err, _, _) ->
           peer_gone e p ~reason:("write failed: " ^ Unix.error_message err));
        if p.p_alive then begin
          (match h.Proto.h_role with
          | Proto.Worker_role ->
              let w =
                {
                  ws_announced = Hashtbl.create 4;
                  ws_acked = Hashtbl.create 4;
                  ws_state = W_idle;
                  ws_push = None;
                }
              in
              p.p_sort <- Worker_peer w;
              Metrics.bump e.cfg.metrics "net_workers_total";
              logf e "%s joined as a worker" p.p_name;
              (* Catch it up on every live job. *)
              List.iter
                (fun jid ->
                  match Hashtbl.find_opt e.jobs jid with
                  | Some jb ->
                      Hashtbl.replace w.ws_announced jid ();
                      send_worker e p (Proto.Nw_job { jid; job = jb.jb_job })
                  | None -> ())
                e.order
          | Proto.Client_role ->
              p.p_sort <- Client_peer { cs_watching = None };
              Metrics.bump e.cfg.metrics "net_clients_total";
              logf e "%s joined as a client" p.p_name)
        end
      end

(* {2 Live stats}

   The whole introspection document is assembled from state the select
   loop already owns, so answering [Cs_stats] never blocks a job: a
   health summary straight off the engine, plus one merged registry —
   the server's own counters folded with every pushed worker registry
   (live and departed) through the commutative [Metrics.merge]. *)

let stats_doc e =
  let t = now () in
  let nworkers, nclients, npending =
    List.fold_left
      (fun (w, c, pd) p ->
        match p.p_sort with
        | Worker_peer _ -> (w + 1, c, pd)
        | Client_peer _ -> (w, c + 1, pd)
        | Pending _ -> (w, c, pd + 1))
      (0, 0, 0) e.peers
  in
  let in_flight =
    Hashtbl.fold
      (fun _ jb acc ->
        Array.fold_left
          (fun acc sh ->
            match sh.sh_state with Sh_running _ -> acc + 1 | _ -> acc)
          acc jb.jb_shards)
      e.jobs 0
  in
  let job_doc jb =
    let done_, running, retries =
      Array.fold_left
        (fun (d, r, a) sh ->
          ( (if sh.sh_state = Sh_done then d + 1 else d),
            (match sh.sh_state with Sh_running _ -> r + 1 | _ -> r),
            a + sh.sh_attempts ))
        (0, 0, 0) jb.jb_shards
    in
    Json.Obj
      [
        ("jid", Json.String jb.jb_id);
        ("scenario", Json.String jb.jb_job.Proto.scenario);
        ("cells", Json.Int jb.jb_units);
        ("shards", Json.Int (Array.length jb.jb_shards));
        ("done", Json.Int done_);
        ("running", Json.Int running);
        ("executed", Json.Int jb.jb_executed);
        ("resumed", Json.Int jb.jb_resumed);
        ("retries", Json.Int retries);
        ("watchers", Json.Int (List.length jb.jb_watchers));
      ]
  in
  let peer_doc p =
    let role, busy =
      match p.p_sort with
      | Pending _ -> ("pending", false)
      | Client_peer _ -> ("client", false)
      | Worker_peer w -> (
          ("worker", match w.ws_state with W_busy _ -> true | W_idle -> false))
    in
    Json.Obj
      [
        ("name", Json.String p.p_name);
        ("role", Json.String role);
        ("busy", Json.Bool busy);
        ("bytes_in", Json.Int p.p_bytes_in);
        ("frames_in", Json.Int p.p_frames_in);
        ("frames_out", Json.Int p.p_frames_out);
      ]
  in
  let health =
    Json.Obj
      [
        ("uptime_s", Json.Int (int_of_float (t -. e.started)));
        ("draining", Json.Bool e.draining);
        ("peers", Json.Int (List.length e.peers));
        ("workers", Json.Int nworkers);
        ("clients", Json.Int nclients);
        ("pending", Json.Int npending);
        ("jobs_active", Json.Int (Hashtbl.length e.jobs));
        ("queue_depth", Json.Int (queue_depth e));
        ("in_flight", Json.Int in_flight);
        ( "jobs",
          Json.List
            (List.filter_map
               (fun jid -> Option.map job_doc (Hashtbl.find_opt e.jobs jid))
               e.order) );
        ("peer_detail", Json.List (List.map peer_doc e.peers));
      ]
  in
  let merged = Metrics.create () in
  (match e.cfg.metrics with
  | Some m -> Metrics.merge ~into:merged m
  | None -> ());
  Metrics.merge ~into:merged e.departed;
  List.iter
    (fun p ->
      match p.p_sort with
      | Worker_peer { ws_push = Some m; _ } -> Metrics.merge ~into:merged m
      | _ -> ())
    e.peers;
  Json.Obj [ ("health", health); ("metrics", Metrics.snapshot merged) ]

(* {2 Frame pump} *)

let handle_frame e p v =
  match p.p_sort with
  | Pending _ -> handle_hello e p v
  | Worker_peer w -> (
      match Proto.net_from_worker_of_json v with
      | Ok msg -> handle_worker_msg e p w msg
      | Error m -> peer_gone e p ~reason:("undecodable message: " ^ m))
  | Client_peer c -> (
      match Proto.client_to_server_of_json v with
      | Ok Proto.Cs_pong -> ()
      | Ok Proto.Cs_stats ->
          Metrics.bump e.cfg.metrics "net_stats_requests_total";
          debugf e "%s asked for stats" p.p_name;
          send_client e p (Proto.Sc_stats (stats_doc e))
      | Ok (Proto.Cs_submit { job; resume }) -> handle_submit e p c ~job ~resume
      | Error m -> peer_gone e p ~reason:("undecodable message: " ^ m))

let read_buf = Bytes.create 65536

let rec drain_frames e p =
  if p.p_alive then
    match Frame.next ~now:(now ()) p.p_dec with
    | Ok None -> ()
    | Ok (Some v) ->
        p.p_frames_in <- p.p_frames_in + 1;
        Metrics.bump e.cfg.metrics "net_frames_in_total";
        handle_frame e p v;
        drain_frames e p
    | Error err ->
        peer_gone e p ~reason:(Format.asprintf "%a" Frame.pp_error err)

let handle_readable e p =
  match Unix.read p.p_fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> peer_gone e p ~reason:"closed its end"
  | n ->
      let t = now () in
      p.p_last <- t;
      p.p_pinged <- false;
      p.p_bytes_in <- p.p_bytes_in + n;
      Metrics.bump e.cfg.metrics ~by:n "net_bytes_in_total";
      let (win_start, win_bytes), over =
        Policy.rate_check ~limit_per_s:e.cfg.rate_limit
          ~window_start:p.p_win_start ~window_bytes:p.p_win_bytes ~arrived:n
          ~now:t
      in
      p.p_win_start <- win_start;
      p.p_win_bytes <- win_bytes;
      if over then peer_gone e p ~reason:"byte-rate cap exceeded"
      else begin
        Frame.feed ~now:t p.p_dec read_buf n;
        drain_frames e p
      end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      peer_gone e p ~reason:"connection reset"

(* {2 Scheduling, timers} *)

(* The [--chaos-kill-shard] hook: losing the link of the worker just
   dealt shard K must change nothing but the stats — the shard is
   re-dealt and the worker reconnects. *)
let chaos_cut e p ~shard =
  match e.chaos with
  | Some (k, n) when k = shard && n > 0 ->
      e.chaos <- Some (k, n - 1);
      peer_gone e p
        ~reason:(Printf.sprintf "chaos: link cut right after dealing shard %d" k)
  | _ -> ()

let deal e =
  if not e.draining then begin
    let t = now () in
    let eligible jb sh =
      sh.sh_state = Sh_pending && sh.sh_not_before <= t && sh.sh_lo <= jb.jb_cut
    in
    let next_shard_for w =
      (* FIFO over jobs, in-order over shards, gated on this worker
         having acked the job's plan. *)
      List.find_map
        (fun jid ->
          match Hashtbl.find_opt e.jobs jid with
          | Some jb when Hashtbl.mem w.ws_acked jid ->
              Array.find_opt (eligible jb) jb.jb_shards
              |> Option.map (fun sh -> (jb, sh))
          | _ -> None)
        e.order
    in
    List.iter
      (fun p ->
        match p.p_sort with
        | Worker_peer w when p.p_alive && w.ws_state = W_idle -> (
            match next_shard_for w with
            | None -> ()
            | Some (jb, sh) ->
                let dispatch_start = Span.now_us () in
                send_worker e p
                  (Proto.Nw_assign
                     {
                       jid = jb.jb_id;
                       shard = sh.sh_id;
                       lo = sh.sh_lo;
                       hi = sh.sh_hi;
                     });
                if p.p_alive then begin
                  debugf e "job %s shard %d dealt to %s" jb.jb_id sh.sh_id
                    p.p_name;
                  Span.emit e.cfg.spans ~phase:"dispatch" ~job:jb.jb_tag
                    ~shard:sh.sh_id ~start_us:dispatch_start;
                  sh.sh_state <- Sh_running p.p_id;
                  w.ws_state <-
                    W_busy
                      {
                        jid = jb.jb_id;
                        shard = sh.sh_id;
                        deadline = t +. e.cfg.shard_timeout;
                      };
                  chaos_cut e p ~shard:sh.sh_id
                end)
        | _ -> ())
      e.peers;
    Metrics.record e.cfg.metrics "net_queue_depth" (queue_depth e)
  end

let check_timers e =
  let t = now () in
  List.iter
    (fun p ->
      if p.p_alive then
        match p.p_sort with
        | Pending deadline ->
            if t > deadline then peer_gone e p ~reason:"handshake timeout"
        | Worker_peer w -> (
            (match w.ws_state with
            | W_busy { jid; shard; deadline } when t > deadline ->
                peer_gone e p
                  ~reason:
                    (Printf.sprintf "job %s shard %d timed out" jid shard)
            | _ -> ());
            if p.p_alive then
              match
                Policy.heartbeat ~timeout:e.cfg.heartbeat_timeout
                  ~silent:(t -. p.p_last) ~pinged:p.p_pinged
              with
              | Policy.Dead -> peer_gone e p ~reason:"heartbeat timeout"
              | Policy.Ping ->
                  send_worker e p Proto.Nw_ping;
                  p.p_pinged <- true
              | Policy.Wait -> ())
        | Client_peer _ -> (
            match
              Policy.heartbeat ~timeout:e.cfg.heartbeat_timeout
                ~silent:(t -. p.p_last) ~pinged:p.p_pinged
            with
            | Policy.Dead -> peer_gone e p ~reason:"heartbeat timeout"
            | Policy.Ping ->
                send_client e p Proto.Sc_ping;
                p.p_pinged <- true
            | Policy.Wait -> ()))
    e.peers

let next_timeout e =
  let t = now () in
  let d = ref 1.0 in
  let note x = if x < !d then d := Float.max x 0.01 in
  List.iter
    (fun p ->
      (match p.p_sort with
      | Pending deadline -> note (deadline -. t)
      | Worker_peer w -> (
          match w.ws_state with
          | W_busy { deadline; _ } -> note (deadline -. t)
          | W_idle -> ())
      | Client_peer _ -> ());
      match p.p_sort with
      | Pending _ -> ()
      | _ ->
          note
            (Policy.heartbeat_deadline ~timeout:e.cfg.heartbeat_timeout
               ~silent:(t -. p.p_last) ~pinged:p.p_pinged))
    e.peers;
  Hashtbl.iter
    (fun _ jb ->
      Array.iter
        (fun sh ->
          if sh.sh_state = Sh_pending && sh.sh_not_before > t then
            note (sh.sh_not_before -. t))
        jb.jb_shards)
    e.jobs;
  !d

let accept_peers e =
  let rec go () =
    match Unix.accept e.listener with
    | fd, addr ->
        Unix.set_close_on_exec fd;
        Net.no_delay fd;
        let p =
          {
            p_id = e.next_pid;
            p_fd = fd;
            p_dec =
              Frame.decoder ~stall_timeout:e.cfg.frame_stall_timeout ();
            p_name =
              Printf.sprintf "peer %d (%s)" e.next_pid
                (Net.string_of_sockaddr addr);
            p_sort = Pending (now () +. e.cfg.handshake_timeout);
            p_last = now ();
            p_pinged = false;
            p_alive = true;
            p_win_start = now ();
            p_win_bytes = 0;
            p_bytes_in = 0;
            p_frames_in = 0;
            p_frames_out = 0;
          }
        in
        e.next_pid <- e.next_pid + 1;
        e.peers <- e.peers @ [ p ];
        Metrics.bump e.cfg.metrics "net_connections_total";
        gauge_peers e;
        logf e "%s connected" p.p_name;
        go ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go ()
  in
  go ()

(* {2 Drain and main loop} *)

let begin_drain e =
  e.draining <- true;
  logf e "draining: no new connections or shards; checkpointing in-flight work";
  close_quiet e.listener;
  (* Tell every client now: their jobs are journalled and resumable. *)
  List.iter
    (fun p ->
      match p.p_sort with
      | Client_peer _ -> send_client e p Proto.Sc_draining
      | _ -> ())
    e.peers

let in_flight e =
  Hashtbl.fold
    (fun _ jb acc ->
      Array.fold_left
        (fun acc sh ->
          match sh.sh_state with Sh_running _ -> acc + 1 | _ -> acc)
        acc jb.jb_shards)
    e.jobs 0

let shutdown e =
  List.iter
    (fun p ->
      match p.p_sort with
      | Worker_peer _ -> send_worker e p Proto.Nw_shutdown
      | _ -> ())
    e.peers;
  List.iter (fun p -> close_quiet p.p_fd) e.peers;
  e.peers <- [];
  Hashtbl.iter (fun _ jb -> Journal.close jb.jb_journal) e.jobs;
  Hashtbl.reset e.jobs;
  e.order <- []

(* One select round: deal, wait for traffic or the next deadline (at
   most [max_wait] seconds), pump frames, fire timers. *)
let step ?(max_wait = 1.0) e =
  deal e;
  let fds =
    (if e.draining then [] else [ e.listener ])
    @ List.filter_map (fun p -> if p.p_alive then Some p.p_fd else None) e.peers
  in
  let readable, _, _ =
    match Unix.select fds [] [] (Float.min max_wait (next_timeout e)) with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if (not e.draining) && List.mem e.listener readable then accept_peers e;
  List.iter
    (fun p ->
      if p.p_alive && List.mem p.p_fd readable then handle_readable e p)
    e.peers;
  check_timers e

let rec loop e =
  if !(e.term) && not e.draining then begin_drain e;
  if e.draining && in_flight e = 0 then shutdown e
  else begin
    step e;
    loop e
  end

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let make_engine cfg ~lookup listener =
  Unix.set_nonblock listener;
  {
    cfg;
    lookup;
    listener;
    term = ref false;
    jobs = Hashtbl.create 8;
    order = [];
    peers = [];
    next_pid = 0;
    draining = false;
    started = now ();
    departed = Metrics.create ();
    chaos = None;
  }

(* SIGTERM starts the drain; the previous handler comes back after. *)
let with_sigterm e f =
  let prev =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> e.term := true))
  in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm prev) f

let serve ?on_listen cfg ~lookup addr =
  ignore_sigpipe ();
  match Net.listen addr with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s"
           (Net.string_of_sockaddr addr)
           (Unix.error_message err))
  | listener, port ->
      let e = make_engine cfg ~lookup listener in
      Option.iter (fun f -> f port) on_listen;
      with_sigterm e (fun () ->
          match loop e with
          | () -> Ok ()
          | exception exn ->
              shutdown e;
              close_quiet listener;
              Error (Printexc.to_string exn))

(* {2 Private fleet}

   [--dist N]: this engine, listening on a private Unix-domain socket
   ({!Net.listen_private}) on the caller's own domain, serving one job
   to N forked [work --connect] children of [exe]. No other user can
   dial the socket, so no forged worker can join and return well-formed
   but false payloads. The job is registered directly — no client
   socket, and the caller's plan is the only one expanded on this
   side. A child that
   exits is replaced, so the run never waits on zero workers; children
   that keep exiting while the job stands still abort the run instead
   of looping forever. *)

type fleet_stats = {
  job_id : string;
  shards : int;
  shard_size : int;
  resumed : int;
  executed : int;
  spawned : int;
  reassigned : int;
}

exception Fleet_failed of string

type fleet = {
  f_exe : string;
  f_args : string array;
  f_size : int;
  mutable f_pids : int list;
  mutable f_spawned : int;
  mutable f_deaths : int;  (** child exits since the job last progressed *)
  mutable f_progress : int;  (** [jb_executed] when [f_deaths] was reset *)
}

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let tend e f jb =
  if jb.jb_executed > f.f_progress then begin
    f.f_progress <- jb.jb_executed;
    f.f_deaths <- 0
  end;
  f.f_pids <-
    List.filter
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> true
        | _, status ->
            f.f_deaths <- f.f_deaths + 1;
            warnf e "worker process %d %s" pid
              (match status with
              | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
              | Unix.WSIGNALED s | Unix.WSTOPPED s ->
                  Printf.sprintf "died of signal %d" s);
            false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
        | exception Unix.Unix_error _ -> false)
      f.f_pids;
  if f.f_deaths > (2 * f.f_size) + 4 then
    raise
      (Fleet_failed
         "worker processes keep exiting without progress — is the worker \
          binary runnable?");
  if not e.draining then
    while List.length f.f_pids < f.f_size do
      let pid =
        Unix.create_process f.f_exe f.f_args Unix.stdin Unix.stderr Unix.stderr
      in
      f.f_pids <- pid :: f.f_pids;
      f.f_spawned <- f.f_spawned + 1;
      debugf e "spawned worker process %d" pid
    done

let rec drive e f jb =
  if !(e.term) && not e.draining then begin_drain e;
  if jb.jb_over = None && not (e.draining && in_flight e = 0) then begin
    tend e f jb;
    (* Short waits: a child that dies before dialing shows up in
       [waitpid], not on any socket. *)
    step ~max_wait:0.1 e;
    drive e f jb
  end

let run_fleet cfg ~workers ~exe ?chaos_kill_shard ?resume ~job inst =
  ignore_sigpipe ();
  match Net.listen_private () with
  | exception Unix.Unix_error (err, _, _) ->
      Error ("cannot open a private socket: " ^ Unix.error_message err)
  | exception Sys_error m -> Error ("cannot open a private socket: " ^ m)
  | listener, path, remove ->
      Fun.protect ~finally:remove @@ fun () ->
      let e =
        make_engine cfg
          ~lookup:(fun _ -> Error "this queue serves a single private job")
          listener
      in
      e.chaos <- chaos_kill_shard;
      (* Installed before the journal exists: once a job id is on disk,
         SIGTERM suspends it rather than killing the process. *)
      with_sigterm e @@ fun () ->
      let admitted =
        match resume with
        | Some id -> revive e ~id ~job ~inst
        | None -> fresh e ~job ~inst
      in
      match admitted with
      | Error m ->
          close_quiet listener;
          Error m
      | Ok jb -> (
          register e jb;
          debugf e
            "job %s: %d cell(s) in %d shard(s), %d resumed, %d worker(s)"
            jb.jb_id jb.jb_units
            (Array.length jb.jb_shards)
            jb.jb_resumed workers;
          job_maybe_done e jb;
          let f =
            {
              f_exe = exe;
              f_args =
                [| exe; "work"; "--connect"; path; "--log-level"; "warn" |];
              f_size = max 1 workers;
              f_pids = [];
              f_spawned = 0;
              f_deaths = 0;
              f_progress = 0;
            }
          in
          let failure =
            match drive e f jb with
            | () -> None
            | exception Fleet_failed m -> Some m
            | exception exn -> Some (Printexc.to_string exn)
          in
          let drained = e.draining in
          shutdown e;
          if not drained then close_quiet listener;
          List.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              reap pid)
            f.f_pids;
          let stats =
            {
              job_id = jb.jb_id;
              shards = Array.length jb.jb_shards;
              shard_size = jb.jb_shard_size;
              resumed = jb.jb_resumed;
              executed = jb.jb_executed;
              spawned = f.f_spawned;
              reassigned =
                Array.fold_left
                  (fun acc sh -> acc + sh.sh_attempts)
                  0 jb.jb_shards;
            }
          in
          match (failure, jb.jb_over) with
          | Some m, _ | None, Some (`Failed m) -> Error m
          | None, Some `Done -> Ok (`Complete jb.jb_payloads, stats)
          | None, None -> Ok (`Suspended jb.jb_id, stats))
