(* Layer probes for the traced run: every per-layer metric, each taken
   by timing one layer's public functions from outside on fixed inputs
   (the workloads' own job definitions where a layer has one), plus the
   attribution of a workload's end-to-end time to layer costs. *)

open Experiments
module W = Workloads
module Explore = Svm.Explore
module Metrics = Svm.Metrics

type report = {
  metrics : (string * float) list;
  failures : string list;  (** pinned counts a probe did not reproduce *)
  internal : (string * float) list;
      (** figures the attribution needs that are not reported *)
}

let ns s = s *. 1e9
let us s = s *. 1e6
let ms s = s *. 1e3
let ratio a b = if b > 0. then a /. b else 0.
let fi = float_of_int
let get_ok = function Ok v -> v | Error m -> failwith m

(* {1 Exploration: engine C, the fallback, Visited and Intern} *)

let explore_probe add fail =
  let spec = W.safe_agreement_explore in
  let s = W.find spec.scenario in
  let run ?metrics jobs = get_ok (W.explore_scenario ?metrics ~jobs spec s) in
  let reg = Metrics.create ~wall_clock:true () in
  let r = run ~metrics:reg W.par in
  (match W.check_explore spec.pin r with Ok _ -> () | Error m -> fail m);
  let c = Metrics.counter_value reg in
  let hits = c "explore.visited.hits" and misses = c "explore.visited.misses" in
  let cpu0 = Measure.cpu () in
  let par_times = List.init 2 (fun _ -> fst (Measure.time (fun () -> run W.par))) in
  let cpu = Measure.cpu () -. cpu0 in
  let serial = Measure.repeat 2 (fun () -> run 1) in
  add "explore.runs" (fi r.explored);
  add "explore.states" (fi misses);
  add "explore.visited_hit_ratio" (ratio (fi hits) (fi (hits + misses)));
  add "explore.pruned_states" (fi r.pruned_states);
  add "explore.pruned_commutes" (fi r.pruned_commutes);
  add "explore.pruned_source" (fi r.pruned_source);
  add "explore.steals" (fi (c "explore.par.steals"));
  add "explore.splits" (fi (c "explore.par.splits"));
  add "explore.cpu_util"
    (ratio cpu (fi W.par *. List.fold_left ( +. ) 0. par_times));
  add "explore.par_speedup" (ratio serial (Measure.median par_times));
  misses

(* Engine C aborts on a counterexample and the plan engine re-runs:
   the waste is the full call minus the plan engine alone, each the
   fastest of three, since the difference is small next to the noise. *)
let fallback_probe add fail internal =
  let spec = W.first_subset_cex in
  let s = W.find ?nprocs:spec.nprocs spec.scenario in
  let make = s.Scenario.make and property = s.Scenario.exhaustive_property in
  let full () =
    Explore.exhaustive ~max_crashes:spec.max_crashes ~jobs:W.par
      ~max_steps:spec.max_steps ~make ~property ()
  and plan_only () =
    Explore.exhaustive_plan ~max_crashes:spec.max_crashes ~jobs:W.par
      ~max_steps:spec.max_steps ~make ~property ()
  in
  let timed engine =
    List.init 3 (fun _ ->
        let dt, r = Measure.time engine in
        (match W.check_explore spec.pin r with Ok _ -> () | Error m -> fail m);
        dt)
    |> List.fold_left Float.min infinity
  in
  let full = timed full in
  let plan = timed plan_only in
  add "explore.fallback_waste_s" (full -. plan);
  internal "explore.plan_pass_s" plan

type key = int * int * int

let visited_probe add ~states =
  let n = max 1024 states in
  let keys : key array =
    Array.init n (fun i -> (i, (i * 7919) land 0xffffff, i lxor 0x5bd1e995))
  in
  let hashes = Array.map Hashtbl.hash keys in
  let rounds = 5 in
  let fresh () = Svm.Visited.create () in
  let insert_all t stats lo step =
    let i = ref lo in
    while !i < n do
      ignore (Svm.Visited.seen_or_add t ~hash:hashes.(!i) keys.(!i) stats);
      i := !i + step
    done
  in
  let per_key f = Measure.median (List.init rounds (fun _ -> f ())) /. fi n in
  let last_stats = ref (Svm.Visited.fresh_stats ()) in
  let insert =
    per_key (fun () ->
        let t = fresh () and stats = Svm.Visited.fresh_stats () in
        last_stats := stats;
        fst (Measure.time (fun () -> insert_all t stats 0 1)))
  in
  let filled = fresh () in
  insert_all filled (Svm.Visited.fresh_stats ()) 0 1;
  let hit =
    per_key (fun () ->
        fst
          (Measure.time (fun () ->
               insert_all filled (Svm.Visited.fresh_stats ()) 0 1)))
  in
  let two_domains =
    per_key (fun () ->
        let t = fresh () in
        fst
          (Measure.time (fun () ->
               let d =
                 Domain.spawn (fun () ->
                     insert_all t (Svm.Visited.fresh_stats ()) 1 2)
               in
               insert_all t (Svm.Visited.fresh_stats ()) 0 2;
               Domain.join d)))
  in
  let intern =
    per_key (fun () ->
        let t = Svm.Visited.Intern.create () in
        fst
          (Measure.time (fun () ->
               Array.iteri
                 (fun i k -> ignore (Svm.Visited.Intern.id t ~hash:hashes.(i) k))
                 keys)))
  in
  add "visited.insert_ns" (ns insert);
  add "visited.hit_ns" (ns hit);
  add "visited.insert_2dom_ns" (ns two_domains);
  add "intern.id_ns" (ns intern);
  add "visited.bloom_fp_ratio"
    (ratio (fi !last_stats.Svm.Visited.bloom_fp) (fi !last_stats.misses))

(* {1 The store of one run} *)

let env_probe add =
  let open Svm in
  let env = Env.create ~nprocs:3 ~x:1 () in
  let v k = Codec.int.Codec.inj k in
  for k = 0 to 15 do
    Env.apply env ~pid:0 (Op.Reg_write ("R", [ k ], v k));
    for pid = 0 to 2 do
      Env.apply env ~pid (Op.Snap_set ("S", [ k ], v (k + pid)))
    done
  done;
  Env.enable_journal env;
  let cycle =
    Measure.per_call ~iters:20_000 (fun i ->
        let cp = Env.checkpoint env in
        Env.apply env ~pid:(i mod 3) (Op.Reg_write ("R", [ i land 15 ], v i));
        Env.rollback env cp)
  in
  let hash = Measure.per_call ~iters:2_000 (fun _ -> ignore (Env.state_hash env)) in
  let canon = Measure.per_call ~iters:2_000 (fun _ -> ignore (Env.canonical env)) in
  add "env.checkpoint_rollback_ns" (ns cycle);
  add "env.state_hash_ns" (ns hash);
  add "env.canonical_ns" (ns canon)

(* {1 Exec and the sweep hooks, on the sweep workload's plan} *)

let sweep_probe add fail internal =
  let s = W.compile_twin () in
  let make_plan () =
    Explore.sweep_plan ~max_faults:W.sweep_faults ~op_window:W.sweep_window
      ~meta:(Scenario.sweep_meta s) ~make:s.Scenario.make
      ~monitors:s.Scenario.monitors ()
  in
  let plan = make_plan () in
  let cells = Explore.sweep_cells plan in
  let timed = Array.init cells (fun i -> Measure.time (fun () -> Explore.sweep_cell plan i)) in
  let cell_s = Array.to_list (Array.map fst timed) in
  let merge () = Explore.sweep_merge plan ~verdict_of:(fun i -> snd timed.(i)) in
  (match W.check_sweep ~cells:W.sweep_cells (merge ()) with
  | Ok _ -> ()
  | Error m -> fail m);
  let wall =
    fst
      (Measure.time (fun () ->
        Harness.sweep_scenario ~max_faults:W.sweep_faults
          ~op_window:W.sweep_window ~jobs:W.par s))
  in
  add "sweep.cells" (fi cells);
  add "sweep.plan_ms" (ms (Measure.repeat 5 make_plan));
  add "sweep.cell_us_p50" (us (Measure.median cell_s));
  add "sweep.cell_us_p99" (us (Measure.quantile 0.99 cell_s));
  add "sweep.merge_ms" (ms (Measure.repeat 5 merge));
  add "sweep.par_efficiency"
    (ratio (List.fold_left ( +. ) 0. cell_s) (fi W.par *. wall));
  add "sdl.compile_ms" (ms (Measure.repeat 20 W.compile_twin));
  (* Every fifth cell re-run through the public Exec.run: bare, with
     the sweep's monitors and trace, and with a metrics registry too. *)
  let schedulers = Explore.default_schedulers ~nprocs:s.Scenario.nprocs in
  let sample = List.filter (fun i -> i mod 5 = 0) (List.init cells Fun.id) in
  let exec ?monitors ?metrics ?(record_trace = false) i =
    let fs = Explore.sweep_cell_schedule plan i in
    let faults =
      List.map
        (fun (f : Explore.fault_point) ->
          {
            Svm.Adversary.kind = f.kind;
            trigger = Svm.Adversary.Crash_at_local { pid = f.victim; step = f.op };
          })
        fs.faults
    in
    let adversary =
      Svm.Adversary.with_faults ((List.assoc fs.scheduler schedulers) ()) faults
    in
    let env, progs = s.Scenario.make () in
    let monitors = Option.map (fun () -> s.Scenario.monitors ()) monitors in
    Svm.Exec.run ~budget:20_000 ~record_trace ?monitors ?metrics ~env
      ~adversary progs
  in
  let variant ?monitors ?metrics ?record_trace () =
    Measure.time (fun () ->
        List.fold_left
          (fun steps i ->
            steps + (exec ?monitors ?metrics ?record_trace i).Svm.Exec.total_steps)
          0 sample)
  in
  let bare, steps = variant () in
  let traced, _ = variant ~monitors:() ~record_trace:true () in
  let reg = Metrics.create () in
  let metered, _ = variant ~monitors:() ~record_trace:true ~metrics:reg () in
  let yields = Metrics.counter_value reg "op.yield" in
  let step = bare /. fi steps in
  add "exec.step_ns" (ns step);
  add "exec.steps_per_cell" (fi steps /. fi (List.length sample));
  add "exec.yield_share" (ratio (fi yields) (fi steps));
  add "exec.monitor_trace_tax" (ratio traced bare);
  add "exec.metrics_tax" (ratio metered traced);
  internal "exec.monitored_step_s" (traced /. fi steps)

(* {1 Soak and the corpus store} *)

let soak_probe add fail ~dir =
  let s = W.find "safe_agreement_no_cancel" in
  let corpus = Filename.concat dir "soak" in
  let soak () = get_ok (Soak.run (W.soak_config ~seed:1 None) ~corpus_dir:corpus s) in
  let fresh = soak () in
  let again = soak () in
  let found = List.length fresh.o_new_findings + fresh.o_dup_findings in
  if again.o_new_findings <> [] || again.o_dup_findings <> found then
    fail "re-soak did not dedup every finding";
  add "soak.schedules" (fi fresh.o_executed);
  add "soak.findings_new" (fi (List.length fresh.o_new_findings));
  add "soak.findings_dup" (fi again.o_dup_findings)

let store_probe add ~dir =
  let records round =
    List.init 300 (fun i ->
        Corpus.Record.make ~kind:Corpus.Record.Finding
          ~meta:[ ("round", string_of_int round); ("i", string_of_int i) ]
          ~payload:(String.init 1500 (fun j -> Char.chr (97 + ((i + j) mod 26)))))
  in
  let per_record t recs =
    fst (Measure.time (fun () -> List.iter (fun r -> ignore (Corpus.Store.add t r)) recs))
    /. 300.
  in
  let samples =
    List.init 3 (fun round ->
        let d = Filename.concat dir (Printf.sprintf "store-%d" round) in
        let recs = records round in
        let t = get_ok (Corpus.Store.open_ ~fsync:true d) in
        let add_s = per_record t recs in
        let dup_s = per_record t recs in
        let cement, () = Measure.time (fun () -> Corpus.Store.cement t) in
        Corpus.Store.close t;
        let t = get_ok (Corpus.Store.open_ ~fsync:false d) in
        List.iter (fun r -> ignore (Corpus.Store.add t r)) (records (round + 10));
        let cement_nofsync, () = Measure.time (fun () -> Corpus.Store.cement t) in
        Corpus.Store.close t;
        let open_s, t = Measure.time (fun () -> get_ok (Corpus.Store.open_ d)) in
        Corpus.Store.close t;
        (add_s, dup_s, cement, cement_nofsync, open_s))
  in
  let med f = Measure.median (List.map f samples) in
  add "store.add_us" (us (med (fun (a, _, _, _, _) -> a)));
  add "store.dup_add_us" (us (med (fun (_, d, _, _, _) -> d)));
  add "store.cement_ms" (ms (med (fun (_, _, c, _, _) -> c)));
  add "store.cement_nofsync_ms" (ms (med (fun (_, _, _, c, _) -> c)));
  add "store.open_ms" (ms (med (fun (_, _, _, _, o) -> o)))

(* {1 Remote execution: the TCP service and the fork coordinator} *)

let remote_probe add fail internal ~ctx =
  let xc = W.find "x_compete" in
  let inproc =
    Measure.repeat 5 (fun () ->
        Harness.sweep_scenario ~max_faults:W.remote_faults
          ~op_window:W.remote_window ~jobs:W.par xc)
  in
  let dir = Filename.concat ctx.W.dir "fleet" in
  let fleet = Fleet.start ~exe:ctx.W.exe ~dir ~workers:W.par in
  Fun.protect ~finally:(fun () -> Fleet.stop fleet) @@ fun () ->
  let cfg = Lazy.force Fleet.client_config in
  let frames () =
    let doc = get_ok (Fleet.stats fleet) in
    Fleet.counter doc "net_frames_in_total"
    + Fleet.counter doc "net_frames_out_total"
  and hits () = Fleet.counter (get_ok (Fleet.stats fleet)) "net_cache_hits_total" in
  let submit job =
    Measure.time (fun () ->
        match Harness.submit_job_net cfg job fleet.addr with
        | Ok (Dist.Client.Finished (Dist.Client.Sweep_outcome o), st) ->
            (match W.check_sweep ~cells:W.remote_cells o with
            | Ok _ -> ()
            | Error m -> fail m);
            st
        | Ok _ -> failwith "net probe: job not finished"
        | Error m -> failwith m)
  in
  let f0 = frames () in
  let f1 = frames () in
  let jobs = List.init 3 (fun i -> W.salted_job ~seed:0 i) in
  let runs = List.map submit jobs in
  let f2 = frames () in
  let shards = (snd (List.hd runs)).Dist.Client.shards in
  let net = Measure.median (List.map fst runs) in
  let h0 = hits () in
  let probes = List.init W.cache_probes (fun _ -> submit (List.hd jobs)) in
  List.iter
    (fun (_, st) -> if st.Dist.Client.executed <> 0 then fail "cache probe re-executed shards")
    probes;
  let cache_hits = hits () - h0 in
  if cache_hits <> W.cache_probes then fail "cache hits differ from the probes";
  let stats_rt = Measure.repeat 10 (fun () -> Fleet.stats fleet) in
  let per_query = f1 - f0 in
  let frames_per_job = fi (f2 - f1 - per_query) /. fi (List.length jobs) in
  add "remote.inproc_job_s" inproc;
  add "remote.overhead_ratio" (ratio net inproc);
  add "remote.shard_overhead_ms" (ms ((net -. inproc) /. fi shards));
  add "net.shards" (fi shards);
  add "net.frames_per_job" frames_per_job;
  add "net.cache_hits" (fi cache_hits);
  add "net.cache_hit_s" (Measure.median (List.map fst probes));
  add "net.stats_roundtrip_ms" (ms stats_rt);
  let dctx = { ctx with W.dir = Filename.concat ctx.W.dir "dist" } in
  Measure.mkdir_p dctx.dir;
  let st = get_ok (W.check_dist (W.sweep_dist dctx 0)) in
  add "dist.spawned" (fi st.Dist.Coordinator.spawned);
  add "dist.reassigned" (fi st.reassigned);
  internal "dist.shards" (fi st.shards)

(* {1 Wire: frames, JSON, journals} *)

let wire_probe add ~dir =
  let payload =
    Dist.Proto.server_to_client_to_json
      (Dist.Proto.Sc_shard { shard = 3; payload = Svm.Json.String (String.make 200 'C') })
  in
  let text = Svm.Json.to_string payload in
  add "frame.encode_us" (us (Measure.per_call ~iters:5_000 (fun _ -> ignore (Dist.Frame.encode payload))));
  add "json.decode_us" (us (Measure.per_call ~iters:5_000 (fun _ -> ignore (Svm.Json.of_string text))));
  let roundtrip a b =
    Measure.per_call ~iters:1_000 (fun _ ->
        Dist.Frame.write a payload;
        ignore (Dist.Frame.read b);
        Dist.Frame.write b payload;
        ignore (Dist.Frame.read a))
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  add "frame.roundtrip_unix_us" (us (roundtrip a b));
  Unix.close a;
  Unix.close b;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.getsockname listener);
  let server, _ = Unix.accept listener in
  add "frame.roundtrip_tcp_us" (us (roundtrip client server));
  List.iter Unix.close [ client; server; listener ];
  let journal fsync iters =
    let j =
      Dist.Journal.create ~dir ~fsync ~job:(W.salted_job ~seed:0 0)
        ~cells:W.remote_cells ~shard_size:201 ()
    in
    let per =
      Measure.per_call ~rounds:3 ~iters (fun i ->
          Dist.Journal.append_shard j ~shard:i ~payload:(Svm.Json.String (String.make 201 'C')))
    in
    Dist.Journal.close j;
    per
  in
  add "journal.append_us" (us (journal false 500));
  add "journal.append_fsync_us" (us (journal true 30))

let run ~spans ~ctx =
  let metrics = ref [] and failures = ref [] and internal = ref [] in
  let add name v = metrics := (name, v) :: !metrics in
  let fail m = failures := m :: !failures in
  let note name v = internal := (name, v) :: !internal in
  let dir = ctx.W.dir in
  Measure.mkdir_p dir;
  let probe name f =
    match Spans.call spans ("probe " ^ name) f with
    | () -> ()
    | exception e -> fail (Printf.sprintf "%s probe: %s" name (Printexc.to_string e))
  in
  let states = ref 0 in
  probe "explore" (fun () -> states := explore_probe add fail);
  probe "fallback" (fun () -> fallback_probe add fail note);
  probe "visited" (fun () -> visited_probe add ~states:!states);
  probe "env" (fun () -> env_probe add);
  probe "sweep" (fun () -> sweep_probe add fail note);
  probe "soak" (fun () -> soak_probe add fail ~dir);
  probe "store" (fun () -> store_probe add ~dir);
  probe "remote" (fun () -> remote_probe add fail note ~ctx);
  probe "wire" (fun () -> wire_probe add ~dir);
  { metrics = List.rev !metrics; failures = List.rev !failures; internal = !internal }

(* {1 Attribution}

   A workload's traced jobs, explained as layer cost x count: the
   counts come from the phase's metrics registry and span outcomes,
   the costs from the probes above. CPU-bound terms are divided by the
   parallelism the phase actually reached (process CPU / wall). The
   remainder is what no probed layer accounts for — waiting, in the
   network workloads. *)

type phase = {
  jobs : int;
  wall : float;  (** summed job seconds *)
  parallelism : float;
  registry : Metrics.t;
}

let terms ~workload ~(probe : string -> float) (p : phase) =
  let c name = fi (Metrics.counter_value p.registry name) in
  let jobs = fi p.jobs in
  let cpu_bound = 1. /. Float.max 1. p.parallelism in
  match workload with
  | "explore" ->
      let hits = c "explore.visited.hits" and misses = c "explore.visited.misses" in
      [
        ("Env checkpoint+op+rollback per transition",
          probe "env.checkpoint_rollback_ns" *. 1e-9 *. cpu_bound, hits +. misses);
        ("Visited insert per new state", probe "visited.insert_ns" *. 1e-9 *. cpu_bound, misses);
        ("Visited hit per revisit", probe "visited.hit_ns" *. 1e-9 *. cpu_bound, hits);
        ("Intern id per new state", probe "intern.id_ns" *. 1e-9 *. cpu_bound, misses);
      ]
  | "explore-cex" ->
      [
        ("engine C pass, aborted", probe "explore.fallback_waste_s", jobs);
        ("plan engine pass", probe "explore.plan_pass_s", jobs);
      ]
  | "sweep" ->
      [
        ("Sdl compile", probe "sdl.compile_ms" *. 1e-3, jobs);
        ("sweep plan", probe "sweep.plan_ms" *. 1e-3, jobs);
        ("Exec step with monitors+trace",
          probe "exec.monitored_step_s" *. cpu_bound, c "sweep.runs" *. probe "exec.steps_per_cell");
        ("sweep merge", probe "sweep.merge_ms" *. 1e-3, jobs);
      ]
  | "soak" ->
      let batches = c "soak.batches" in
      [
        ("Store add, new finding", probe "store.add_us" *. 1e-6, c "soak.findings.new");
        ("Store add, duplicate", probe "store.dup_add_us" *. 1e-6, c "soak.findings.dup");
        ("Store cement per batch", probe "store.cement_ms" *. 1e-3, batches);
        ("Store open", probe "store.open_ms" *. 1e-3, jobs);
      ]
  | "net" ->
      let frames = jobs *. probe "net.frames_per_job" in
      let shards = jobs *. probe "net.shards" in
      [
        ("in-process compute of the job", probe "remote.inproc_job_s", jobs);
        ("Frame TCP one-way trip", probe "frame.roundtrip_tcp_us" *. 0.5e-6, frames);
        ("Json decode per frame", probe "json.decode_us" *. 1e-6, frames);
        ("Journal append per shard", probe "journal.append_us" *. 1e-6, shards);
      ]
  | "dist" ->
      (* Two frames per shard (assign, result), plus a hello, its reply
         and a shutdown per worker. *)
      let shards = jobs *. probe "dist.shards" in
      let frames = (2. *. shards) +. (3. *. fi W.par *. jobs) in
      [
        ("in-process compute of the job", probe "remote.inproc_job_s", jobs);
        ("Frame socketpair one-way trip", probe "frame.roundtrip_unix_us" *. 0.5e-6, frames);
        ("Json decode per frame", probe "json.decode_us" *. 1e-6, frames);
        ("Journal append per shard", probe "journal.append_us" *. 1e-6, shards);
      ]
  | _ -> []
