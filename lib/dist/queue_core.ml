module Json = Svm.Json
module Metrics = Svm.Metrics
module Log = Svm.Log

type config = {
  fingerprint : string;
  shard_size : int option;
  shard_timeout : float;
  heartbeat_timeout : float;
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

type action = Send of int * Json.t | Cut of int * string

type event =
  | Accepted of { peer : int; name : string }
  | Received of { peer : int; bytes : int; frames : Json.t list }
  | Lost of { peer : int; reason : string }
  | Tick
  | Drain

(* {2 State} *)

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
  mutable jb_watchers : peer list;
  mutable jb_over : [ `Done | `Failed of string ] option;
}

and peer = {
  p_id : int;
  p_name : string;
  mutable p_sort : sort;
  mutable p_last : float;  (** when it was last heard from *)
  mutable p_pinged : bool;
  mutable p_bytes_in : int;
  mutable p_frames_in : int;
  mutable p_frames_out : int;
}

and sort =
  | Pending of float  (** handshake deadline *)
  | Worker_peer of wsess
  | Client_peer of { mutable watching : job option }

and wsess = {
  plans : (string, bool) Hashtbl.t;
      (** jobs announced to this worker, [true] once it acked the plan *)
  mutable state : wstate;
  mutable push : Metrics.t option;  (** its last pushed registry *)
}

and wstate = W_idle | W_busy of { job : job; shard : shard; deadline : float }

type t = {
  cfg : config;
  lookup : Proto.job -> (Worker.instance, string) result;
  mutable jobs : job list;  (** live jobs, FIFO arrival order *)
  mutable peers : peer list;  (** arrival order *)
  mutable draining : bool;
  mutable now : float;  (** the instant of the event being handled *)
  started : float;
  departed : Metrics.t;
      (** pushed registries of departed workers: fleet totals never
          shrink when a peer leaves *)
  mutable chaos : (int * int) option;
  mutable out : action list;  (** this event's actions, newest first *)
}

let create ?chaos cfg ~lookup ~now =
  {
    cfg;
    lookup;
    jobs = [];
    peers = [];
    draining = false;
    now;
    started = now;
    departed = Metrics.create ();
    chaos;
    out = [];
  }

let logf t fmt = Log.infof t.cfg.log fmt
let warnf t fmt = Log.warnf t.cfg.log fmt
let debugf t fmt = Log.debugf t.cfg.log fmt
let bump t name = Metrics.bump t.cfg.metrics name
let find_peer t pid = List.find_opt (fun p -> p.p_id = pid) t.peers
let find_job t jid = List.find_opt (fun jb -> jb.jb_id = jid) t.jobs

let gauge_peers t =
  Metrics.record t.cfg.metrics "net_peers" (List.length t.peers);
  Metrics.record t.cfg.metrics "net_jobs_active" (List.length t.jobs)

let count jb f =
  Array.fold_left (fun n sh -> if f sh then n + 1 else n) 0 jb.jb_shards

let running sh = match sh.sh_state with Sh_running _ -> true | _ -> false
let retries jb = Array.fold_left (fun a sh -> a + sh.sh_attempts) 0 jb.jb_shards

(* Shards the in-order merge still needs: not done, not past the cut. *)
let remaining jb =
  count jb (fun sh -> sh.sh_state <> Sh_done && sh.sh_lo <= jb.jb_cut)

let sum_jobs t f = List.fold_left (fun acc jb -> acc + f jb) 0 t.jobs
let queue_depth t = sum_jobs t remaining
let in_flight t = sum_jobs t (fun jb -> count jb running)
let draining t = t.draining

let send t p frame =
  p.p_frames_out <- p.p_frames_out + 1;
  bump t "net_frames_out_total";
  t.out <- Send (p.p_id, frame) :: t.out

let to_worker t p m = send t p (Proto.net_to_worker_to_json m)
let to_client t p m = send t p (Proto.server_to_client_to_json m)

let each_worker t f =
  List.iter
    (fun p -> match p.p_sort with Worker_peer w -> f p w | _ -> ())
    t.peers

(* {2 Peer loss, shard loss, job verdicts} *)

let job_over t jb verdict =
  jb.jb_over <- Some verdict;
  t.jobs <- List.filter (( != ) jb) t.jobs;
  if verdict = `Done then
    Journal.mark_complete jb.jb_journal ~fingerprint:jb.jb_fp;
  Journal.close jb.jb_journal;
  gauge_peers t;
  (* Every worker that was told about the job may drop its plan. *)
  each_worker t (fun p w ->
      if Hashtbl.mem w.plans jb.jb_id then begin
        Hashtbl.remove w.plans jb.jb_id;
        to_worker t p (Proto.Nw_job_over { jid = jb.jb_id })
      end);
  let msg =
    match verdict with
    | `Done ->
        logf t "job %s complete: %d shard(s) executed, %d resumed" jb.jb_id
          jb.jb_executed jb.jb_resumed;
        Proto.Sc_done { executed = jb.jb_executed; resumed = jb.jb_resumed }
    | `Failed m ->
        warnf t "job %s failed: %s" jb.jb_id m;
        Proto.Sc_failed m
  in
  List.iter
    (fun p ->
      p.p_sort <- Client_peer { watching = None };
      to_client t p msg)
    jb.jb_watchers;
  jb.jb_watchers <- []

let job_maybe_done t jb = if remaining jb = 0 then job_over t jb `Done

let shard_lost t jb sh =
  if jb.jb_over = None && running sh then begin
    sh.sh_attempts <- sh.sh_attempts + 1;
    bump t "net_shard_retries_total";
    Metrics.sample t.cfg.metrics "net_shard_retry_ladder" sh.sh_attempts;
    match
      Policy.retry ~max_retries:t.cfg.max_retries ~base:t.cfg.backoff
        ~attempts:sh.sh_attempts
    with
    | Policy.Requeue delay ->
        sh.sh_state <- Sh_pending;
        sh.sh_not_before <- t.now +. delay;
        warnf t "job %s shard %d back in the queue (lost attempt %d)" jb.jb_id
          sh.sh_id sh.sh_attempts
    | Policy.Hostile ->
        Journal.append_hostile jb.jb_journal ~shard:sh.sh_id;
        job_over t jb
          (`Failed
            (Printf.sprintf
               "shard %d [%d,%d) is hostile: it took down %d workers" sh.sh_id
               sh.sh_lo sh.sh_hi sh.sh_attempts))
  end

(* Forget a peer: its shard goes back in the queue, its watch ends, and
   its last metrics push folds into the departed pool. *)
let gone t p ~reason =
  t.peers <- List.filter (( != ) p) t.peers;
  warnf t "%s is gone: %s" p.p_name reason;
  gauge_peers t;
  match p.p_sort with
  | Pending _ | Client_peer { watching = None } -> ()
  | Client_peer { watching = Some jb } ->
      jb.jb_watchers <- List.filter (( != ) p) jb.jb_watchers
  | Worker_peer w -> (
      Option.iter (fun m -> Metrics.merge ~into:t.departed m) w.push;
      match w.state with
      | W_idle -> ()
      | W_busy { job; shard; _ } -> shard_lost t job shard)

let cut t p ~reason =
  t.out <- Cut (p.p_id, reason) :: t.out;
  gone t p ~reason

(* {2 Jobs} *)

let make_job ~job ~units ~shard_size ~inst journal =
  let nshards = Worker.shard_count ~units ~shard_size in
  let fp = Proto.job_fingerprint job in
  {
    jb_id = Journal.id journal;
    jb_job = job;
    jb_fp = fp;
    jb_tag = Span.job_tag fp;
    jb_units = units;
    jb_shard_size = shard_size;
    jb_check = Worker.check_payload inst;
    jb_shards =
      Array.init nshards (fun i ->
          let lo, hi = Worker.shard_range ~units ~shard_size i in
          {
            sh_id = i;
            sh_lo = lo;
            sh_hi = hi;
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

let announce t p w jb =
  if not (Hashtbl.mem w.plans jb.jb_id) then begin
    Hashtbl.replace w.plans jb.jb_id false;
    to_worker t p (Proto.Nw_job { jid = jb.jb_id; job = jb.jb_job })
  end

let register t jb =
  let admit_start = Span.now_us () in
  t.jobs <- t.jobs @ [ jb ];
  bump t "net_jobs_total";
  gauge_peers t;
  each_worker t (fun p w -> announce t p w jb);
  Span.emit t.cfg.spans ~phase:"admit" ~job:jb.jb_tag ~shard:(-1)
    ~start_us:admit_start

(* Accept a validated shard payload into the job: journal it, store it,
   stream it to the watchers, advance the finding cut. *)
let shard_done t jb ~shard ~payload ~finding ~restored =
  let merge_start = Span.now_us () in
  jb.jb_shards.(shard).sh_state <- Sh_done;
  jb.jb_payloads.(shard) <- Some payload;
  if restored then jb.jb_resumed <- jb.jb_resumed + 1
  else begin
    Journal.append_shard jb.jb_journal ~shard ~payload;
    jb.jb_executed <- jb.jb_executed + 1;
    bump t "net_shards_executed_total";
    bump t ("net_shards_by_scenario." ^ jb.jb_job.Proto.scenario)
  end;
  (match finding with
  | Some abs when abs < jb.jb_cut ->
      jb.jb_cut <- abs;
      logf t "job %s: finding at cell %d (shard %d); cutting the tail"
        jb.jb_id abs shard
  | _ -> ());
  List.iter
    (fun p -> to_client t p (Proto.Sc_shard { shard; payload }))
    jb.jb_watchers;
  if not restored then
    Span.emit t.cfg.spans ~phase:"merge" ~job:jb.jb_tag ~shard
      ~start_us:merge_start

(* {2 Admission}

   A job enters the queue fresh, revived from its journal (resume), or
   answered from a completed journal of the same description (the
   result cache). Revival re-validates every journalled payload exactly
   as if a worker had just sent it; a corrupt entry is simply re-run. *)

let fresh t ~job ~inst =
  let units = Worker.cells_of_instance inst in
  let shard_size =
    match t.cfg.shard_size with
    | Some s -> max 1 s
    | None ->
        let workers = ref 0 in
        each_worker t (fun _ _ -> incr workers);
        Policy.shard_size ~units ~workers:!workers
  in
  match
    Journal.create ~dir:t.cfg.journal_dir ~fsync:t.cfg.fsync ~job ~cells:units
      ~shard_size ()
  with
  | exception exn -> Error ("cannot create journal: " ^ Printexc.to_string exn)
  | journal -> Ok (make_job ~job ~units ~shard_size ~inst journal)

let revive t ~id ~job ~inst =
  let units = Worker.cells_of_instance inst in
  let ( let* ) = Result.bind in
  let* l = Journal.load ~dir:t.cfg.journal_dir id in
  let fail fmt = Printf.ksprintf (fun m -> Error ("job " ^ id ^ " " ^ m)) fmt in
  let* () =
    if Proto.job_fingerprint l.l_job <> Proto.job_fingerprint job then
      fail "was journalled for a different job description"
    else if l.l_cells <> units then
      fail "journalled %d cells, the plan has %d" l.l_cells units
    else if l.l_hostile <> [] then
      fail "recorded shard %d as hostile; not resumable" (List.hd l.l_hostile)
    else if l.l_shard_size < 1 then fail "journalled a bad shard size"
    else Ok ()
  in
  let* journal = Journal.reopen ~dir:t.cfg.journal_dir ~fsync:t.cfg.fsync id in
  let jb = make_job ~job ~units ~shard_size:l.l_shard_size ~inst journal in
  List.iter
    (fun (shard, payload) ->
      if shard >= 0 && shard < Array.length jb.jb_shards then
        let sh = jb.jb_shards.(shard) in
        if sh.sh_state <> Sh_done then
          match jb.jb_check ~lo:sh.sh_lo ~hi:sh.sh_hi payload with
          | Ok finding ->
              shard_done t jb ~shard ~payload ~finding ~restored:true
          | Error _ -> ())
    l.l_done;
  Ok jb

(* The result cache: a fresh submit whose fingerprint names a journal
   marked complete is answered from it — zero shards re-executed — if
   that journal still revives with every shard up to the finding cut
   (a run that found a violation never executed its tail, and never
   needs to). *)
let cached t ~job ~inst =
  match
    Journal.completed_id ~dir:t.cfg.journal_dir
      ~fingerprint:(Proto.job_fingerprint job) ()
  with
  | Some id when find_job t id = None -> (
      match revive t ~id ~job ~inst with
      | Ok jb when remaining jb = 0 -> Some jb
      | Ok jb ->
          Journal.close jb.jb_journal;
          None
      | Error _ -> None)
  | _ -> None

let enqueue t jb fmt =
  Printf.ksprintf
    (fun how ->
      register t jb;
      logf t "job %s %s" jb.jb_id how;
      jb)
    fmt

(* The job a submit watches: live, revived, cached or fresh. *)
let admission t ~job ~resume ~inst =
  let fp = Proto.job_fingerprint job in
  let units = Worker.cells_of_instance inst in
  match resume with
  | Some id -> (
      match find_job t id with
      | Some jb when jb.jb_fp <> fp ->
          Error (Printf.sprintf "job %s is a different job description" id)
      | Some jb -> Ok jb
      | None ->
          Result.map
            (fun jb ->
              enqueue t jb "revived from its journal (%d shard(s) restored)"
                jb.jb_resumed)
            (revive t ~id ~job ~inst))
  | None -> (
      (* Coalesce identical submissions onto the live job. *)
      match
        List.find_opt (fun jb -> jb.jb_fp = fp && jb.jb_units = units) t.jobs
      with
      | Some jb ->
          logf t "coalescing submit onto live job %s" jb.jb_id;
          Ok jb
      | None -> (
          match cached t ~job ~inst with
          | Some jb ->
              bump t "net_cache_hits_total";
              Ok
                (enqueue t jb
                   "answered from its completed journal (cache hit, %d \
                    shard(s))"
                   jb.jb_resumed)
          | None ->
              Result.map
                (fun jb ->
                  enqueue t jb "accepted: %d cell(s) in %d shard(s)" units
                    (Array.length jb.jb_shards))
                (fresh t ~job ~inst)))

(* A client's bad input gets a typed answer before the cut. *)
let reject_client t p msg =
  to_client t p (Proto.Sc_rejected msg);
  cut t p ~reason:("rejected: " ^ msg)

let handle_submit t p c ~job ~resume =
  let reject = reject_client t p in
  if Option.is_some c then cut t p ~reason:"second submit on one connection"
  else if t.draining then reject "server is draining"
  else
    (* Planning runs on parameters from the wire: whatever it raises
       rejects this submit and leaves the server up. *)
    match try t.lookup job with exn -> Error (Printexc.to_string exn) with
    | Error m -> reject ("cannot expand job: " ^ m)
    | Ok inst -> (
        match admission t ~job ~resume ~inst with
        | Error m -> reject m
        | Ok jb ->
            p.p_sort <- Client_peer { watching = Some jb };
            jb.jb_watchers <- p :: jb.jb_watchers;
            to_client t p
              (Proto.Sc_accepted
                 {
                   jid = jb.jb_id;
                   cells = jb.jb_units;
                   shard_size = jb.jb_shard_size;
                 });
            Array.iteri
              (fun shard ->
                Option.iter (fun payload ->
                    to_client t p (Proto.Sc_shard { shard; payload })))
              jb.jb_payloads;
            job_maybe_done t jb)

(* {2 Worker messages} *)

let handle_worker_msg t p w = function
  | Proto.Nf_pong { metrics = None } -> ()
  | Proto.Nf_pong { metrics = Some snap } -> (
      (* A worker's pushed registry replaces its previous push (the
         snapshot is cumulative); a malformed push is a protocol
         violation like any other undecodable frame. *)
      match Metrics.of_snapshot snap with
      | Ok reg ->
          w.push <- Some reg;
          bump t "net_metrics_pushes_total";
          debugf t "%s pushed a metrics snapshot" p.p_name
      | Error m -> cut t p ~reason:("bad metrics push: " ^ m))
  | Proto.Nf_job_ok { jid; cells } -> (
      match find_job t jid with
      | None -> ()
      | Some jb when cells <> jb.jb_units ->
          cut t p
            ~reason:
              (Printf.sprintf
                 "planned %d cells for job %s but the server planned %d — \
                  registries disagree"
                 cells jid jb.jb_units)
      | Some _ -> Hashtbl.replace w.plans jid true)
  | Proto.Nf_job_err { jid; msg } ->
      (* The fingerprint matched, so both sides must expand the job the
         same way; a rejection here means they do not. *)
      cut t p ~reason:(Printf.sprintf "rejected job %s: %s" jid msg)
  | Proto.Nf_result { jid; shard; payload } -> (
      let mine =
        match w.state with
        | W_busy { job; shard = sh; _ } -> job.jb_id = jid && sh.sh_id = shard
        | W_idle -> false
      in
      match find_job t jid with
      | None ->
          (* The job ended while the result was in flight: stale. *)
          if mine then w.state <- W_idle
      | Some jb when shard < 0 || shard >= Array.length jb.jb_shards ->
          cut t p ~reason:"result for an unknown shard"
      | Some jb -> (
          let sh = jb.jb_shards.(shard) in
          if not (mine && sh.sh_state = Sh_running p.p_id) then
            cut t p ~reason:"result for a shard it does not own"
          else
            match jb.jb_check ~lo:sh.sh_lo ~hi:sh.sh_hi payload with
            | Error m ->
                (* The worker stays busy, so cutting it requeues the
                   shard through the ordinary loss path. *)
                cut t p
                  ~reason:
                    (Printf.sprintf "bad payload for job %s shard %d: %s" jid
                       shard m)
            | Ok finding ->
                w.state <- W_idle;
                shard_done t jb ~shard ~payload ~finding ~restored:false;
                job_maybe_done t jb))

(* {2 Handshake} *)

let handle_hello t p v =
  let reject msg =
    bump t "net_handshake_rejects_total";
    send t p (Proto.welcome_to_json (Proto.Rejected msg));
    cut t p ~reason:("handshake rejected: " ^ msg)
  in
  match Proto.hello_of_json v with
  | Error m -> reject ("bad hello: " ^ m)
  | Ok _ when t.draining -> reject "server is draining"
  | Ok h when h.Proto.h_version <> Proto.net_version ->
      reject
        (Printf.sprintf
           "protocol version %d unsupported (this server speaks %d)"
           h.Proto.h_version Proto.net_version)
  | Ok h when h.Proto.h_fingerprint <> t.cfg.fingerprint ->
      reject "scenario-registry fingerprint mismatch"
  | Ok h -> (
      send t p (Proto.welcome_to_json Proto.Welcome);
      logf t "%s joined as a %s" p.p_name (Proto.role_name h.Proto.h_role);
      match h.Proto.h_role with
      | Proto.Client_role ->
          p.p_sort <- Client_peer { watching = None };
          bump t "net_clients_total"
      | Proto.Worker_role ->
          let w = { plans = Hashtbl.create 4; state = W_idle; push = None } in
          p.p_sort <- Worker_peer w;
          bump t "net_workers_total";
          (* Catch it up on every live job. *)
          List.iter (announce t p w) t.jobs)

(* {2 Live stats}

   The whole introspection document is assembled from state the core
   already owns, so answering [Cs_stats] never blocks a job: a health
   summary straight off the queue, plus one merged registry — the
   server's own counters folded with every pushed worker registry (live
   and departed) through the commutative [Metrics.merge]. *)

let stats_doc t =
  let role p =
    match p.p_sort with
    | Worker_peer _ -> "worker"
    | Client_peer _ -> "client"
    | Pending _ -> "pending"
  in
  let int k v = (k, Json.Int v) in
  let peers r = List.length (List.filter (fun p -> role p = r) t.peers) in
  let job_doc jb =
    Json.Obj
      [
        ("jid", Json.String jb.jb_id);
        ("scenario", Json.String jb.jb_job.Proto.scenario);
        int "cells" jb.jb_units;
        int "shards" (Array.length jb.jb_shards);
        int "done" (count jb (fun sh -> sh.sh_state = Sh_done));
        int "running" (count jb running);
        int "executed" jb.jb_executed;
        int "resumed" jb.jb_resumed;
        int "retries" (retries jb);
        int "watchers" (List.length jb.jb_watchers);
      ]
  in
  let peer_doc p =
    let busy =
      match p.p_sort with
      | Worker_peer { state = W_busy _; _ } -> true
      | _ -> false
    in
    Json.Obj
      [
        ("name", Json.String p.p_name);
        ("role", Json.String (role p));
        ("busy", Json.Bool busy);
        int "bytes_in" p.p_bytes_in;
        int "frames_in" p.p_frames_in;
        int "frames_out" p.p_frames_out;
      ]
  in
  let health =
    Json.Obj
      [
        int "uptime_s" (int_of_float (t.now -. t.started));
        ("draining", Json.Bool t.draining);
        int "peers" (List.length t.peers);
        int "workers" (peers "worker");
        int "clients" (peers "client");
        int "pending" (peers "pending");
        int "jobs_active" (List.length t.jobs);
        int "queue_depth" (queue_depth t);
        int "in_flight" (in_flight t);
        ("jobs", Json.List (List.map job_doc t.jobs));
        ("peer_detail", Json.List (List.map peer_doc t.peers));
      ]
  in
  let merged = Metrics.create () in
  Option.iter (fun m -> Metrics.merge ~into:merged m) t.cfg.metrics;
  Metrics.merge ~into:merged t.departed;
  each_worker t (fun _ w ->
      Option.iter (fun m -> Metrics.merge ~into:merged m) w.push);
  Json.Obj [ ("health", health); ("metrics", Metrics.snapshot merged) ]

(* {2 Frames} *)

let handle_frame t p v =
  let undecodable = ( ^ ) "undecodable message: " in
  match p.p_sort with
  | Pending _ -> handle_hello t p v
  | Worker_peer w -> (
      match Proto.net_from_worker_of_json v with
      | Ok msg -> handle_worker_msg t p w msg
      | Error m -> cut t p ~reason:(undecodable m))
  | Client_peer { watching } -> (
      match Proto.client_to_server_of_json v with
      | Ok Proto.Cs_pong -> ()
      | Ok Proto.Cs_stats ->
          bump t "net_stats_requests_total";
          debugf t "%s asked for stats" p.p_name;
          to_client t p (Proto.Sc_stats (stats_doc t))
      | Ok (Proto.Cs_submit { job; resume }) ->
          handle_submit t p watching ~job ~resume
      | Error m -> reject_client t p (undecodable m))

let received t p ~bytes frames =
  p.p_last <- t.now;
  p.p_pinged <- false;
  p.p_bytes_in <- p.p_bytes_in + bytes;
  Metrics.bump t.cfg.metrics ~by:bytes "net_bytes_in_total";
  List.iter
    (fun v ->
      (* A frame after one that cut the peer is never looked at. *)
      if List.memq p t.peers then begin
        p.p_frames_in <- p.p_frames_in + 1;
        bump t "net_frames_in_total";
        handle_frame t p v
      end)
    frames

(* {2 Dealing, deadlines} *)

let assign t p w jb sh =
  let dispatch_start = Span.now_us () in
  to_worker t p
    (Proto.Nw_assign
       { jid = jb.jb_id; shard = sh.sh_id; lo = sh.sh_lo; hi = sh.sh_hi });
  debugf t "job %s shard %d dealt to %s" jb.jb_id sh.sh_id p.p_name;
  Span.emit t.cfg.spans ~phase:"dispatch" ~job:jb.jb_tag ~shard:sh.sh_id
    ~start_us:dispatch_start;
  sh.sh_state <- Sh_running p.p_id;
  let deadline = t.now +. t.cfg.shard_timeout in
  w.state <- W_busy { job = jb; shard = sh; deadline };
  (* The [--chaos-kill-shard] hook: losing the link of the worker just
     dealt shard K must change nothing but the stats. *)
  match t.chaos with
  | Some (k, n) when k = sh.sh_id && n > 0 ->
      t.chaos <- Some (k, n - 1);
      cut t p
        ~reason:(Printf.sprintf "chaos: link cut right after dealing shard %d" k)
  | _ -> ()

(* FIFO over jobs, in order over shards, each to an idle worker that
   has acked the job's plan. *)
let deal t =
  let eligible jb sh =
    sh.sh_state = Sh_pending && sh.sh_not_before <= t.now
    && sh.sh_lo <= jb.jb_cut
  in
  let next w jb =
    if Hashtbl.find_opt w.plans jb.jb_id <> Some true then None
    else
      Array.find_opt (eligible jb) jb.jb_shards
      |> Option.map (fun sh -> (jb, sh))
  in
  each_worker t (fun p w ->
      if w.state = W_idle then
        Option.iter
          (fun (jb, sh) -> assign t p w jb sh)
          (List.find_map (next w) t.jobs));
  Metrics.record t.cfg.metrics "net_queue_depth" (queue_depth t)

(* A peer's next timed decision: the instant it falls due, and what it
   does then. That is the handshake deadline, or the earlier of the
   shard deadline and the next heartbeat edge (a ping at half the
   timeout, death at the full timeout). *)
let timer t p =
  let timeout = t.cfg.heartbeat_timeout in
  let edge = p.p_last +. if p.p_pinged then timeout else timeout /. 2. in
  match p.p_sort with
  | Pending deadline ->
      (deadline, fun () -> cut t p ~reason:"handshake timeout")
  | Worker_peer { state = W_busy { job; shard; deadline }; _ }
    when deadline < edge ->
      ( deadline,
        fun () ->
          cut t p
            ~reason:
              (Printf.sprintf "job %s shard %d timed out" job.jb_id shard.sh_id)
      )
  | Worker_peer _ | Client_peer _ ->
      ( edge,
        fun () ->
          match
            Policy.heartbeat ~timeout ~silent:(t.now -. p.p_last)
              ~pinged:p.p_pinged
          with
          | Policy.Dead -> cut t p ~reason:"heartbeat timeout"
          | Policy.Wait -> ()
          | Policy.Ping ->
              p.p_pinged <- true;
              match p.p_sort with
              | Client_peer _ -> to_client t p Proto.Sc_ping
              | _ -> to_worker t p Proto.Nw_ping )

let next_deadline t ~now =
  let d =
    List.fold_left (fun d p -> Float.min d (fst (timer t p))) infinity t.peers
  in
  let d =
    List.fold_left
      (fun d jb ->
        Array.fold_left
          (fun d sh ->
            if sh.sh_state = Sh_pending && sh.sh_not_before > now then
              Float.min d sh.sh_not_before
            else d)
          d jb.jb_shards)
      d t.jobs
  in
  if d = infinity then None else Some d

(* {2 Events} *)

(* Seconds a new peer has to complete its hello. *)
let handshake_timeout = 5.

let handle t ~now ev =
  t.now <- now;
  (match ev with
  | Accepted { peer; name } ->
      t.peers <-
        t.peers
        @ [
            {
              p_id = peer;
              p_name = name;
              p_sort = Pending (now +. handshake_timeout);
              p_last = now;
              p_pinged = false;
              p_bytes_in = 0;
              p_frames_in = 0;
              p_frames_out = 0;
            };
          ];
      bump t "net_connections_total";
      gauge_peers t;
      logf t "%s connected" name
  | Received { peer; bytes; frames } ->
      Option.iter (fun p -> received t p ~bytes frames) (find_peer t peer)
  | Lost { peer; reason } -> Option.iter (gone t ~reason) (find_peer t peer)
  | Tick ->
      List.iter
        (fun p ->
          let at, fire = timer t p in
          if now > at then fire ())
        t.peers;
      if not t.draining then deal t
  | Drain ->
      t.draining <- true;
      logf t "draining: no new connections or shards; checkpointing \
              in-flight work";
      (* Tell every client now: their jobs are journalled and resumable. *)
      List.iter
        (fun p ->
          match p.p_sort with
          | Client_peer _ -> to_client t p Proto.Sc_draining
          | _ -> ())
        t.peers);
  let acts = List.rev t.out in
  t.out <- [];
  acts

let shutdown t =
  each_worker t (fun p _ -> to_worker t p Proto.Nw_shutdown);
  List.iter (fun p -> t.out <- Cut (p.p_id, "shutdown") :: t.out) t.peers;
  t.peers <- [];
  List.iter (fun jb -> Journal.close jb.jb_journal) t.jobs;
  t.jobs <- [];
  let acts = List.rev t.out in
  t.out <- [];
  acts

(* {2 A job without a client} *)

let admit t ~now ?resume ~job inst =
  t.now <- now;
  Result.map
    (fun jb ->
      register t jb;
      job_maybe_done t jb;
      jb)
    (match resume with
    | Some id -> revive t ~id ~job ~inst
    | None -> fresh t ~job ~inst)

type fleet_stats = {
  job_id : string;
  shards : int;
  shard_size : int;
  resumed : int;
  executed : int;
  spawned : int;
  reassigned : int;
}

let fleet_stats jb ~spawned =
  {
    job_id = jb.jb_id;
    shards = Array.length jb.jb_shards;
    shard_size = jb.jb_shard_size;
    resumed = jb.jb_resumed;
    executed = jb.jb_executed;
    spawned;
    reassigned = retries jb;
  }

let outcome jb =
  match jb.jb_over with
  | None -> `Running
  | Some `Done -> `Complete jb.jb_payloads
  | Some (`Failed m) -> `Failed m
