(* The job queue's core ({!Dist.Queue_core}) driven in-process, with no
   socket, no fork and no sleep: virtual workers and a virtual client
   trade frames with it over a virtual clock, under a seeded schedule
   that mixes in worker crashes (a lost peer), omissions (a dropped
   result, so the shard times out), hangs (a worker that goes silent),
   Byzantine results (a bad tag string, a wrong length, an unknown job
   id, a well-formed but false result for a shard the worker does not
   own) and, in some schedules, a drain followed by a revive from the
   same journal directory. Honest workers compute real payloads with
   {!Dist.Worker.compute_shard}. After every event:

   - the event did not raise;
   - every shard streamed to the client is the honest one: a forged or
     misattributed result never lands;
   - every shard the core counts in flight was dealt to a live worker
     that has not answered yet;
   - nothing is sent to a peer the core has cut.

   And at the end of each schedule:

   - a completed job journals every shard at most once and every shard
     up to the finding cut exactly once, and the client's payloads merge
     to the honest outcome;
   - after a drain, advancing time past the shard and heartbeat
     timeouts reaches [in_flight = 0];
   - a revive from the drained job's journal deals no journalled shard.

   A failure prints the seed and its event list. [ASMSIM_HEAVY=1] runs
   more seeds. *)

open Svm
module Core = Dist.Queue_core
module Proto = Dist.Proto

(* {2 Jobs and their honest outcome} *)

type fixture = {
  name : string;
  job : Proto.job;
  inst : Dist.Worker.instance;
  shard_size : int;
  honest : Json.t array;  (** the honest payload of each shard *)
  cut : int;  (** the first finding cell; [max_int] if none *)
  outcome : string;  (** the merged honest outcome *)
}

let repr = function
  | Dist.Merge.Sweep_outcome o ->
      Printf.sprintf "runs=%d exhausted=%b found=%s" o.Explore.runs
        o.Explore.exhausted
        (match o.Explore.found with
        | None -> "none"
        | Some f -> f.Explore.replay)
  | Dist.Merge.Explore_outcome _ -> "explore"

let fixture ~shard_size name job =
  let inst =
    match Experiments.Harness.dist_instance job with
    | Ok inst -> inst
    | Error m -> Alcotest.failf "%s does not plan: %s" name m
  in
  let cells = Dist.Worker.cells_of_instance inst in
  let range i = (i * shard_size, min cells ((i + 1) * shard_size)) in
  let honest =
    Array.init
      ((cells + shard_size - 1) / shard_size)
      (fun i ->
        let lo, hi = range i in
        Dist.Worker.compute_shard inst ~lo ~hi ~tick:ignore)
  in
  let cut =
    Array.to_list honest
    |> List.mapi (fun i p ->
           let lo, hi = range i in
           match Dist.Worker.check_payload inst ~lo ~hi p with
           | Ok (Some cell) -> cell
           | Ok None -> max_int
           | Error m -> Alcotest.failf "%s: honest shard %d: %s" name i m)
    |> List.fold_left min max_int
  in
  let outcome =
    repr
      (Dist.Merge.instance inst ~shard_size
         ~payloads:(Array.map Option.some honest))
  in
  { name; job; inst; shard_size; honest; cut; outcome }

let fixtures =
  lazy
    (let sweep name ~max_runs =
       let s =
         match Experiments.Scenario.find name with
         | Ok s -> s
         | Error m -> Alcotest.fail m
       in
       fixture ~shard_size:4 name
         (Experiments.Harness.sweep_job ~max_runs s)
     in
     [|
       sweep "x_compete" ~max_runs:40;
       sweep "safe_agreement_no_cancel" ~max_runs:40;
     |])

(* {2 The model} *)

type role = Worker | Client

type vpeer = {
  id : int;
  role : role;
  mutable outbox : Json.t list;  (** frames for the core, oldest first *)
  mutable welcomed : bool;  (** the handshake verdict arrived *)
  mutable hung : bool;  (** sends nothing more *)
  mutable busy : (string * int) option;  (** dealt, result not delivered *)
}

type entry = Ev of float * Core.event | Note of string

(* How often each path was taken, over all seeds: a schedule that never
   reaches a fault checks nothing about it. *)
let tally : (string, int) Hashtbl.t = Hashtbl.create 16

let times what = Option.value ~default:0 (Hashtbl.find_opt tally what)
let count what = Hashtbl.replace tally what (1 + times what)

type model = {
  seed : int;
  fx : fixture;
  rng : Rng.t;
  dir : string;
  mutable now : float;
  mutable core : Core.t;
  mutable peers : vpeer list;  (** connected, in the core's eyes too *)
  mutable next_id : int;
  mutable trace : entry list;  (** newest first *)
  mutable jid : string option;
  got : Json.t option array;  (** payloads the client collected *)
  mutable verdict :
    [ `Done of int * int | `Failed of string | `Drained ] option;
  mutable draining : bool;
  mutable dealt : int list;  (** shards dealt since the last revive *)
}

let shard_timeout = 10.
let heartbeat_timeout = 20.
let workers = 3

let config dir =
  {
    (Core.default_config ~fingerprint:"model" ()) with
    Core.shard_size = Some 4;
    shard_timeout;
    heartbeat_timeout;
    journal_dir = dir;
    metrics = Some (Metrics.create ~wall_clock:false ());
  }

let new_core ~dir ~now fx =
  Core.create (config dir) ~now ~lookup:(fun job ->
      if Proto.job_fingerprint job = Proto.job_fingerprint fx.job then
        Ok fx.inst
      else Error "not the model's job")

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let render = function
  | Note s -> "  " ^ s
  | Ev (t, ev) -> (
      let at = Printf.sprintf "%8.2f " t in
      match ev with
      | Core.Accepted { peer; name } ->
          Printf.sprintf "%saccept %d %s" at peer name
      | Core.Received { peer; frames; _ } ->
          Printf.sprintf "%sfrom %d: %s" at peer
            (String.concat " " (List.map Json.to_string frames))
      | Core.Lost { peer; reason } ->
          Printf.sprintf "%slost %d: %s" at peer reason
      | Core.Tick -> at ^ "tick"
      | Core.Drain -> at ^ "drain")

let fail m fmt =
  Printf.ksprintf
    (fun msg ->
      Alcotest.failf "seed %d (%s): %s\nevents:\n%s" m.seed m.fx.name msg
        (String.concat "\n" (List.rev_map render m.trace)))
    fmt

let note m fmt = Printf.ksprintf (fun s -> m.trace <- Note s :: m.trace) fmt

let noted m what fmt =
  count what;
  note m fmt

let find m id = List.find_opt (fun p -> p.id = id) m.peers
let forget m p = m.peers <- List.filter (fun q -> q.id <> p.id) m.peers
let post p v = if not p.hung then p.outbox <- p.outbox @ [ v ]
let to_core p m = post p (Proto.net_from_worker_to_json m)
let plan_cells m = Dist.Worker.cells_of_instance m.fx.inst
let range m s =
  (s * m.fx.shard_size, min (plan_cells m) ((s + 1) * m.fx.shard_size))

(* Take back the result a worker has not sent yet. *)
let unsend p =
  p.outbox <-
    List.filter
      (fun v ->
        match Proto.net_from_worker_of_json v with
        | Ok (Proto.Nf_result _) -> false
        | _ -> true)
      p.outbox

(* What a virtual peer does with one frame from the core: the first is
   the handshake verdict, every later one a message of its role. *)
let answer m p frame =
  let decoded =
    match p.role with
    | _ when not p.welcomed ->
        p.welcomed <- true;
        Result.map (fun w -> `Welcome w) (Proto.welcome_of_json frame)
    | Worker ->
        Result.map (fun w -> `Worker w) (Proto.net_to_worker_of_json frame)
    | Client ->
        Result.map (fun c -> `Client c) (Proto.server_to_client_of_json frame)
  in
  match decoded with
  | Error e -> fail m "peer %d got an undecodable frame: %s" p.id e
  | Ok (`Welcome Proto.Welcome) -> ()
  | Ok (`Welcome (Proto.Rejected r)) when p.role = Worker ->
      if not m.draining then fail m "an honest worker was turned away: %s" r
  | Ok (`Welcome (Proto.Rejected r) | `Client (Proto.Sc_rejected r)) ->
      m.verdict <-
        Some (if m.draining then `Drained else `Failed ("rejected: " ^ r))
  | Ok (`Worker (Proto.Nw_job { jid; _ })) ->
      to_core p (Proto.Nf_job_ok { jid; cells = plan_cells m })
  | Ok (`Worker (Proto.Nw_assign { jid; shard; lo; hi })) ->
      if p.busy <> None then
        fail m "peer %d dealt shard %d while busy" p.id shard;
      if (lo, hi) <> range m shard then
        fail m "shard %d dealt as [%d,%d)" shard lo hi;
      m.dealt <- shard :: m.dealt;
      p.busy <- Some (jid, shard);
      to_core p (Proto.Nf_result { jid; shard; payload = m.fx.honest.(shard) })
  | Ok (`Worker Proto.Nw_ping) -> to_core p (Proto.Nf_pong { metrics = None })
  | Ok (`Worker (Proto.Nw_job_over _ | Proto.Nw_shutdown)) -> ()
  | Ok (`Client (Proto.Sc_accepted { jid; cells; shard_size })) -> (
      if (cells, shard_size) <> (plan_cells m, m.fx.shard_size) then
        fail m "accepted with %d cells in shards of %d" cells shard_size;
      match m.jid with
      | Some j when j <> jid -> fail m "job %s became %s" j jid
      | _ -> m.jid <- Some jid)
  | Ok (`Client (Proto.Sc_shard { shard; payload })) ->
      if payload <> m.fx.honest.(shard) then
        fail m "a forged result landed: shard %d = %s" shard
          (Json.to_string payload);
      m.got.(shard) <- Some payload
  | Ok (`Client (Proto.Sc_done { executed; resumed })) ->
      m.verdict <- Some (`Done (executed, resumed))
  | Ok (`Client (Proto.Sc_failed r)) -> m.verdict <- Some (`Failed r)
  | Ok (`Client Proto.Sc_draining) -> m.verdict <- Some `Drained
  | Ok (`Client Proto.Sc_ping) ->
      post p (Proto.client_to_server_to_json Proto.Cs_pong)
  | Ok (`Client (Proto.Sc_stats _)) -> ()

(* Feed one event, carry out the core's actions, check the invariants. *)
let step m ev =
  m.trace <- Ev (m.now, ev) :: m.trace;
  let acts =
    try Core.handle m.core ~now:m.now ev
    with exn -> fail m "the event raised %s" (Printexc.to_string exn)
  in
  List.iter
    (function
      | Core.Cut (id, reason) -> (
          note m "cut %d: %s" id reason;
          match find m id with
          | Some p ->
              if p.busy <> None then count "busy worker cut";
              forget m p
          | None -> fail m "cut of peer %d, which is not connected" id)
      | Core.Send (id, frame) -> (
          match find m id with
          | Some p -> answer m p frame
          | None -> fail m "a frame for peer %d, which is not connected" id))
    acts;
  let busy = List.length (List.filter (fun p -> p.busy <> None) m.peers) in
  if Core.in_flight m.core > busy then
    fail m "%d shard(s) in flight, %d live worker(s) dealt one"
      (Core.in_flight m.core) busy

let connect m role =
  let p =
    {
      id = m.next_id;
      role;
      outbox = [];
      welcomed = false;
      hung = false;
      busy = None;
    }
  in
  m.next_id <- m.next_id + 1;
  m.peers <- m.peers @ [ p ];
  step m (Core.Accepted { peer = p.id; name = Printf.sprintf "v%d" p.id });
  post p
    (Proto.hello_to_json
       {
         Proto.h_version = Proto.net_version;
         h_role =
           (match role with
           | Worker -> Proto.Worker_role
           | Client -> Proto.Client_role);
         h_fingerprint = "model";
       });
  if role = Client then
    post p
      (Proto.client_to_server_to_json
         (Proto.Cs_submit { job = m.fx.job; resume = m.jid }))

(* Deliver the first [n] frames [p] has for the core. *)
let deliver m p n =
  let frames = List.filteri (fun i _ -> i < n) p.outbox in
  p.outbox <- List.filteri (fun i _ -> i >= n) p.outbox;
  List.iter
    (fun v ->
      match Proto.net_from_worker_of_json v with
      | Ok (Proto.Nf_result { jid; shard; _ }) when p.busy = Some (jid, shard)
        ->
          p.busy <- None
      | _ -> ())
    frames;
  let bytes =
    List.fold_left (fun n v -> n + String.length (Json.to_string v)) 0 frames
  in
  step m (Core.Received { peer = p.id; bytes; frames })

let tick m dt =
  m.now <- m.now +. dt;
  step m Core.Tick

let pick m l = List.nth l (Rng.int m.rng (List.length l))
let honest_workers m =
  List.filter (fun p -> p.role = Worker && not p.hung) m.peers

let client_up m = List.exists (fun p -> p.role = Client) m.peers

(* A well-formed result that is not the honest one. *)
let flip = function
  | Json.String s when s <> "" ->
      let c = match s.[0] with 'C' -> 'D' | _ -> 'C' in
      Json.String (String.make 1 c ^ String.sub s 1 (String.length s - 1))
  | v -> v

let forge m p =
  let result jid shard payload =
    (* A Byzantine worker lies instead of answering. *)
    unsend p;
    to_core p (Proto.Nf_result { jid; shard; payload })
  in
  match (Rng.int m.rng 4, p.busy) with
  | 0, _ ->
      noted m "unknown job" "peer %d sends a result for an unknown job" p.id;
      result "no-such-job" 0 m.fx.honest.(0)
  | _, None -> ()
  | 1, Some (jid, s) ->
      noted m "bad tags" "peer %d forges bad tags for shard %d" p.id s;
      let lo, hi = range m s in
      result jid s (Json.String (String.make (hi - lo) 'X'))
  | 2, Some (jid, s) ->
      noted m "wrong length" "peer %d forges a wrong length for shard %d" p.id
        s;
      result jid s
        (match m.fx.honest.(s) with
        | Json.String t -> Json.String (t ^ "C")
        | v -> v)
  | _, Some (jid, own) ->
      (* Busy with its own shard, it cannot be dealt [s] before the
         forgery arrives: [s] is not its to answer. *)
      let n = Array.length m.fx.honest in
      let s = (own + 1 + Rng.int m.rng (n - 1)) mod n in
      noted m "unowned" "peer %d forges shard %d, which it does not own" p.id
        s;
      result jid s (flip m.fx.honest.(s))

(* One step of the seeded schedule. *)
let random_step m =
  let r = Rng.int m.rng 100 in
  let workers_up = List.filter (fun p -> p.role = Worker) m.peers in
  let sending = List.filter (fun p -> p.outbox <> []) m.peers in
  if r < 45 && sending <> [] then begin
    let p = pick m sending in
    deliver m p (1 + Rng.int m.rng (List.length p.outbox))
  end
  else if r < 60 then tick m (float_of_int (Rng.int m.rng 3000) /. 1000.)
  else if r < 68 && workers_up <> [] then begin
    let p = pick m workers_up in
    forget m p;
    count "crash";
    step m (Core.Lost { peer = p.id; reason = "crash" })
  end
  else if r < 71 && workers_up <> [] then begin
    let p = pick m workers_up in
    noted m "hang" "peer %d hangs" p.id;
    p.outbox <- [];
    p.hung <- true
  end
  else if r < 77 && List.exists (fun p -> p.busy <> None) workers_up then begin
    let p = pick m (List.filter (fun p -> p.busy <> None) workers_up) in
    noted m "omission" "peer %d's result is lost" p.id;
    unsend p
  end
  else if r < 85 && workers_up <> [] then forge m (pick m workers_up)
  else if r < 86 && client_up m then
    let p = List.find (fun p -> p.role = Client) m.peers in
    post p (Proto.client_to_server_to_json Proto.Cs_stats)
  else if List.length (honest_workers m) < workers then connect m Worker
  else if (not (client_up m)) && m.verdict = None then connect m Client
  else tick m 0.5

(* Honest workers and client, every frame delivered, time moving: the
   job must end. *)
let settle m =
  let rounds = ref 0 in
  while m.verdict = None do
    incr rounds;
    if !rounds > 2000 then fail m "the job never ended";
    while List.length (honest_workers m) < workers do
      connect m Worker
    done;
    if not (client_up m) then connect m Client;
    List.iter
      (fun p ->
        if p.outbox <> [] && List.memq p m.peers then
          deliver m p (List.length p.outbox))
      m.peers;
    if m.verdict = None && List.for_all (fun p -> p.outbox = []) m.peers then
      tick m 1.
  done

let journalled m =
  match m.jid with
  | None -> []
  | Some jid -> (
      match Dist.Journal.load ~dir:m.dir jid with
      | Ok l -> l.Dist.Journal.l_done
      | Error e -> fail m "journal of %s does not load: %s" jid e)

(* The end of a completed job: the journal holds each shard at most once
   and each shard up to the cut exactly once, honestly; the client's
   payloads merge to the honest outcome. *)
let check_done m ~executed ~resumed =
  let j = journalled m in
  let shards = List.map fst j in
  if List.length (List.sort_uniq compare shards) <> List.length shards then
    fail m "a shard was journalled twice: %s"
      (String.concat "," (List.map string_of_int shards));
  List.iter
    (fun (s, v) ->
      if v <> m.fx.honest.(s) then fail m "journalled a false shard %d" s)
    j;
  if executed + resumed <> List.length j then
    fail m "done with %d executed + %d resumed, %d journalled" executed resumed
      (List.length j);
  Array.iteri
    (fun s _ ->
      let lo, _ = range m s in
      if lo <= m.fx.cut && not (List.mem_assoc s j && m.got.(s) <> None) then
        fail m "shard %d is under the cut but missing" s)
    m.fx.honest;
  let merged =
    repr
      (Dist.Merge.instance m.fx.inst ~shard_size:m.fx.shard_size
         ~payloads:m.got)
  in
  if merged <> m.fx.outcome then
    fail m "merged %s, honestly %s" merged m.fx.outcome

let finish m =
  match m.verdict with
  | Some (`Done (executed, resumed)) ->
      count (if m.fx.cut < max_int then "done past a finding" else "done");
      check_done m ~executed ~resumed
  | Some (`Failed r) ->
      (* Only the hostile bound may fail a job of honest cells. *)
      if not (contains r "hostile") then fail m "the job failed: %s" r;
      count "hostile"
  | Some `Drained | None -> fail m "the job did not end"

let run_seed dir seed =
  let fxs = Lazy.force fixtures in
  let fx = fxs.(seed mod Array.length fxs) in
  let dir = Filename.concat dir (Printf.sprintf "seed-%d" seed) in
  Unix.mkdir dir 0o755;
  let now = 1000. in
  let m =
    {
      seed;
      fx;
      rng = Rng.create seed;
      dir;
      now;
      core = new_core ~dir ~now fx;
      peers = [];
      next_id = 0;
      trace = [];
      jid = None;
      got = Array.make (Array.length fx.honest) None;
      verdict = None;
      draining = false;
      dealt = [];
    }
  in
  let steps = 150 in
  let drain_at = if Rng.int m.rng 3 = 0 then Rng.int m.rng steps else -1 in
  connect m Client;
  for i = 0 to steps - 1 do
    if i = drain_at then begin
      m.draining <- true;
      step m Core.Drain
    end;
    random_step m
  done;
  if not m.draining then settle m
  else begin
    (* Past both timeouts every dealt shard is back or lost: the drain
       has run dry, and the shell would shut down. *)
    tick m (shard_timeout +. heartbeat_timeout +. 1.);
    if Core.in_flight m.core <> 0 then
      fail m "%d shard(s) still in flight after the drain"
        (Core.in_flight m.core);
    note m "shutdown";
    ignore (Core.shutdown m.core);
    m.peers <- [];
    match m.verdict with
    | Some (`Done _ | `Failed _) -> ()
    | Some `Drained | None ->
        (* A new core on the same journal directory: the client resumes
           the job, and no journalled shard is dealt again. *)
        let journalled = List.map fst (journalled m) in
        noted m "revive" "revive";
        m.core <- new_core ~dir ~now:m.now fx;
        m.draining <- false;
        m.verdict <- None;
        m.dealt <- [];
        settle m;
        List.iter
          (fun s ->
            if List.mem s journalled then
              fail m "the revive dealt journalled shard %d" s)
          m.dealt
  end;
  finish m

let seeds = if Sys.getenv_opt "ASMSIM_HEAVY" = Some "1" then 5_000 else 300

let model () =
  let dir = Tmpdir.fresh "asmsim-queue-model" in
  for seed = 0 to seeds - 1 do
    run_seed dir seed
  done;
  List.iter
    (fun what ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d time(s)" what (times what))
        true (Hashtbl.mem tally what))
    [
      "done"; "done past a finding"; "revive"; "crash"; "hang"; "omission";
      "bad tags"; "wrong length"; "unknown job"; "unowned"; "busy worker cut";
    ]

let suite =
  [
    ( "queue-model",
      [ Tmpdir.test_case "seeded worker faults, virtual clock" `Quick model ] );
  ]
