(* Benchmark harness: one Bechamel test per reproduced artifact (the
   paper's figures are algorithms, so each benchmark times one complete
   execution of the corresponding construction under a fixed seeded
   schedule), plus substrate benches.

   Prints the Section 5.4 class table (the paper's only "table") first,
   then the timing estimates. *)

open Bechamel
open Toolkit
open Svm
open Svm.Prog.Syntax

let adversary seed = Adversary.random ~seed

(* ------------------------------------------------------------------ *)
(* Benchmark bodies: each is one complete run                           *)
(* ------------------------------------------------------------------ *)

let bench_native_snapshot () =
  let env = Env.create ~nprocs:4 ~x:1 () in
  let prog i =
    let rec go r =
      if r = 0 then Prog.return (Codec.int.Codec.inj i)
      else
        let* () = Prog.snap_set Codec.int "m" [] r in
        let* _ = Prog.snap_scan Codec.int "m" [] in
        go (r - 1)
    in
    go 25
  in
  ignore (Exec.run ~env ~adversary:(adversary 1) (Array.init 4 prog))

let bench_afek_snapshot () =
  let env = Env.create ~nprocs:3 ~x:1 () in
  let snap = Shared_objects.Afek_snapshot.make ~fam:"AF" ~nprocs:3 in
  let prog i =
    let rec go r =
      if r = 0 then Prog.return (Codec.int.Codec.inj i)
      else
        let* () =
          Shared_objects.Afek_snapshot.update snap ~pid:i (Codec.int.Codec.inj r)
        in
        let* _ = Shared_objects.Afek_snapshot.scan snap ~pid:i in
        go (r - 1)
    in
    go 8
  in
  ignore (Exec.run ~env ~adversary:(adversary 2) (Array.init 3 prog))

let bench_safe_agreement () =
  let env = Env.create ~nprocs:5 ~x:1 () in
  let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
  let prog i =
    let* () =
      Shared_objects.Safe_agreement.propose sa ~key:[] (Codec.int.Codec.inj i)
    in
    Shared_objects.Safe_agreement.decide sa ~key:[]
  in
  ignore (Exec.run ~env ~adversary:(adversary 3) (Array.init 5 prog))

let bench_ts_from_cons () =
  let env = Env.create ~nprocs:6 ~x:2 () in
  let ts = Shared_objects.Ts_from_cons.make ~fam:"TS" ~participants:6 in
  let prog i =
    Prog.map Codec.bool.Codec.inj
      (Shared_objects.Ts_from_cons.compete ts ~key:[] ~pid:i)
  in
  ignore (Exec.run ~env ~adversary:(adversary 4) (Array.init 6 prog))

let bench_x_compete () =
  let env = Env.create ~nprocs:6 ~x:2 () in
  let xc = Shared_objects.X_compete.make ~fam:"XC" ~participants:6 ~x:2 in
  let prog i =
    Prog.map Codec.bool.Codec.inj
      (Shared_objects.X_compete.compete xc ~key:[] ~pid:i)
  in
  ignore (Exec.run ~env ~adversary:(adversary 5) (Array.init 6 prog))

let bench_x_safe_agreement x () =
  let env = Env.create ~nprocs:6 ~x () in
  let xsa = Shared_objects.X_safe_agreement.make ~fam:"XSA" ~participants:6 ~x () in
  let prog i =
    let* () =
      Shared_objects.X_safe_agreement.propose xsa ~key:[] ~pid:i
        (Codec.int.Codec.inj i)
    in
    Shared_objects.X_safe_agreement.decide xsa ~key:[] ~pid:i
  in
  ignore (Exec.run ~env ~adversary:(adversary 6) (Array.init 6 prog))

let run_alg ?(budget = 5_000_000) ~seed alg () =
  let n = Core.Algorithm.n alg in
  let inputs = List.init n (fun i -> (7 * i) + 3) in
  ignore
    (Core.Run.run_ints ~budget ~alg ~inputs ~adversary:(adversary seed) ())

(* Native task algorithms. *)
let kset_native = Tasks.Algorithms.kset_read_write ~n:5 ~t:2 ~k:3
let kset_grouped = Tasks.Algorithms.kset_grouped ~n:6 ~t:4 ~x:2 ~k:3
let renaming_native = Tasks.Algorithms.renaming_read_write ~n:6 ~t:2

(* The simulations (built once; each run is independent). *)
let bg_classic = Core.Bg.classic ~source:kset_native
let sim_down = Core.Bg.sim_down ~source:kset_grouped ~t:2

let sim_up_x2 =
  Core.Bg.sim_up ~source:(Tasks.Algorithms.kset_read_write ~n:6 ~t:2 ~k:3)
    ~t':5 ~x:2

let sim_up_x3 =
  Core.Bg.sim_up ~source:(Tasks.Algorithms.kset_read_write ~n:6 ~t:1 ~k:2)
    ~t':5 ~x:3

let window_lo =
  Core.Bg.sim_up ~source:(Tasks.Algorithms.kset_read_write ~n:6 ~t:1 ~k:2)
    ~t':2 ~x:2

let window_hi =
  Core.Bg.sim_up ~source:(Tasks.Algorithms.kset_read_write ~n:6 ~t:1 ~k:2)
    ~t':3 ~x:2

let chain_2hop =
  Core.Bg.chain
    ~source:(Tasks.Algorithms.kset_read_write ~n:4 ~t:2 ~k:3)
    ~via:[ Core.Model.read_write ~n:3 ~t:2; Core.Model.make ~n:6 ~t:5 ~x:2 ]

let colored_renaming =
  Core.Bg.colored ~source:renaming_native
    ~target:(Core.Model.make ~n:4 ~t:2 ~x:2)

let bench_universal_counter () =
  let open Universal.Seq_spec in
  let env = Env.create ~nprocs:4 ~x:4 () in
  let obj = Universal.Herlihy.make counter ~fam:"U" in
  let prog pid =
    let session = Universal.Herlihy.session obj ~pid in
    let rec go acc = function
      | [] -> Prog.return (Codec.int.Codec.inj acc)
      | op :: rest ->
          let* r = Universal.Herlihy.invoke session op in
          go (acc + r) rest
    in
    go 0 [ Add 1; Add 1; Add 1 ]
  in
  ignore (Exec.run ~env ~adversary:(adversary 21) (Array.init 4 prog))

let bench_paxos () =
  let env = Env.create ~nprocs:5 ~x:1 () in
  Env.set_oracle env "OM"
    (Shared_objects.Paxos.leader_oracle ~stabilize_after:3 ~leader:2 ~nprocs:5);
  let paxos = Shared_objects.Paxos.make ~fam:"P" ~nprocs:5 in
  ignore
    (Exec.run ~budget:60_000 ~env ~adversary:(adversary 22)
       (Array.init 5 (fun pid ->
            Shared_objects.Paxos.consensus paxos ~oracle_fam:"OM" ~pid
              (Codec.int.Codec.inj pid))))

let mlset_alg =
  Tasks.Set_agreement.algorithm ~n:6 ~t:3 ~m:3 ~l:2
    ~k:(Tasks.Set_agreement.herlihy_rajsbaum_k ~t:3 ~m:3 ~l:2)

let bench_mlset () =
  let env = Env.create ~nprocs:6 ~x:1 ~allow_kset:true () in
  ignore
    (Exec.run ~env ~adversary:(adversary 23)
       (Array.init 6 (fun pid ->
            mlset_alg.Core.Algorithm.code ~pid
              ~input:(Codec.int.Codec.inj (2 * pid)))))

(* The EX family: one explorer workload (safe agreement, 3 procs, one
   crash allowed) timed under each engine configuration, so the
   committed JSON records where the exploration time goes —
   copy-per-branch baseline, undo journal alone, the static-plan
   engine, and the work-stealing engine at 1 and 4 jobs — all at depth
   12.  [explore_speedup_ratio] (EX / EXp4) is what the engine rebuild
   buys over copy-per-branch.  Two extra rows re-time the plan engine
   and the work-stealing engine at depth 15, where the plan engine's
   per-arrival cost (full-history hashing) has grown three levels
   further while the work-stealing engine's stays O(1) per step:
   [par_speedup_ratio] (EXd15 / EXp415) is the number the bench gate
   holds above 2.0. *)

let explore_depth = 12
let explore_depth_deep = 15
let explore_crashes = 1

let explore_make () =
  let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
  let env = Env.create ~nprocs:3 ~x:1 () in
  let prog i =
    let* () =
      Shared_objects.Safe_agreement.propose sa ~key:[] (Codec.int.Codec.inj i)
    in
    Shared_objects.Safe_agreement.decide sa ~key:[]
  in
  (env, Array.init 3 prog)

let explore_ok _ = Ok ()

let bench_explore_copy () =
  ignore
    (Explore.exhaustive_copy ~max_crashes:explore_crashes
       ~max_steps:explore_depth ~make:explore_make ~property:explore_ok ())

let bench_explore_journal () =
  ignore
    (Explore.exhaustive ~max_crashes:explore_crashes ~dedup:false
       ~frontier_depth:explore_depth ~max_steps:explore_depth
       ~make:explore_make ~property:explore_ok ())

let bench_explore_dedup () =
  ignore
    (Explore.exhaustive ~max_crashes:explore_crashes
       ~frontier_depth:explore_depth ~max_steps:explore_depth
       ~make:explore_make ~property:explore_ok ())

let bench_explore_par jobs () =
  ignore
    (Explore.exhaustive ~max_crashes:explore_crashes ~jobs
       ~max_steps:explore_depth ~make:explore_make ~property:explore_ok ())

let bench_explore_plan_deep () =
  ignore
    (Explore.exhaustive_plan ~max_crashes:explore_crashes
       ~frontier_depth:explore_depth_deep ~max_steps:explore_depth_deep
       ~make:explore_make ~property:explore_ok ())

let bench_explore_par_deep jobs () =
  ignore
    (Explore.exhaustive ~max_crashes:explore_crashes ~jobs
       ~max_steps:explore_depth_deep ~make:explore_make ~property:explore_ok
       ())

let ex_name = "EX: explorer baseline, copy-per-branch, sa(3) depth 12"
let exu_name = "EXu: explorer, undo journal, no dedup"
let exd_name = "EXd: plan engine, journal + fingerprint dedup"
let exp1_name = "EXp1: shared visited + work stealing, jobs=1"
let exp4_name = "EXp4: shared visited + work stealing, jobs=4"
let exd15_name = "EXd15: plan engine, sa(3) depth 15"
let exp415_name = "EXp415: shared visited + stealing, jobs=4, depth 15"

let explore_family =
  [
    (ex_name, bench_explore_copy);
    (exu_name, bench_explore_journal);
    (exd_name, bench_explore_dedup);
    (exp1_name, bench_explore_par 1);
    (exp4_name, bench_explore_par 4);
    (exd15_name, bench_explore_plan_deep);
    (exp415_name, bench_explore_par_deep 4);
  ]

(* The sweep-harness overhead pair: the same safe-agreement workload
   run bare, and run the way the fault sweeper runs it — fault-capable
   adversary wrapper, online monitors, trace recording — with no fault
   actually firing, so the difference is pure harness tax. *)

let sweep_overhead_progs () =
  let env = Env.create ~nprocs:5 ~x:1 () in
  let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
  let prog i =
    let* () =
      Shared_objects.Safe_agreement.propose sa ~key:[] (Codec.int.Codec.inj i)
    in
    Shared_objects.Safe_agreement.decide sa ~key:[]
  in
  (env, Array.init 5 prog)

let bench_overhead_plain () =
  let env, progs = sweep_overhead_progs () in
  ignore (Exec.run ~env ~adversary:(adversary 3) progs)

let bench_overhead_swept () =
  let env, progs = sweep_overhead_progs () in
  let adversary = Adversary.with_faults (adversary 3) [] in
  let monitors = [ Monitor.agreement (); Monitor.crash_bound ~bound:1 () ] in
  ignore (Exec.run ~record_trace:true ~monitors ~env ~adversary progs)

let bench_overhead_metrics () =
  let env, progs = sweep_overhead_progs () in
  let adversary = Adversary.with_faults (adversary 3) [] in
  let monitors = [ Monitor.agreement (); Monitor.crash_bound ~bound:1 () ] in
  ignore
    (Exec.run ~record_trace:true ~monitors ~metrics:(Metrics.create ()) ~env
       ~adversary progs)

let overhead_plain_name = "OV0: safe agreement, bare Exec.run"
let overhead_swept_name = "OV1: same + fault wrapper, monitors, trace"
let overhead_metrics_name = "OV2: same + metrics registry"

(* SW0: one fault sweep run in-process — the reference the NET row's
   overhead ratio divides by. *)

let sw0_scenario =
  match Experiments.Scenario.find "safe_agreement" with
  | Ok s -> s
  | Error e -> failwith e

let sw0_runs = 400

let bench_sweep_inproc () =
  ignore
    (Experiments.Harness.sweep_scenario ~max_runs:sw0_runs sw0_scenario)

let sw0_name = "SW0: fault sweep, safe agreement, in-process"

(* The NET family: the same sweep submitted to a loopback TCP service
   with one remote worker — handshake, framed submit, shard stream,
   journal, local merge. The server and worker start once and are
   reused across iterations, so NET1 prices the per-job protocol cost
   rather than process startup; [net_overhead_ratio] (NET1 / SW0) is
   the tax of going through the socket instead of the in-process
   sweep. *)

let net_exe = "_build/default/bin/asmsim.exe"
let net_errfile = "_build/bench-net-server.err"
let net_state : int option ref = ref None

let net_read_err () =
  match In_channel.with_open_bin net_errfile In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

let net_scrape_port s =
  let marker = "listening on port " in
  let mn = String.length marker in
  let rec find i =
    if i + mn > String.length s then None
    else if String.sub s i mn = marker then Some (i + mn)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some digits ->
      let j = ref digits in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      if !j > digits then
        Some (int_of_string (String.sub s digits (!j - digits)))
      else None

let net_port () =
  match !net_state with
  | Some port -> port
  | None ->
      let errfd =
        Unix.openfile net_errfile
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
          0o644
      in
      let srv =
        Unix.create_process net_exe
          [|
            net_exe;
            "serve";
            "--listen";
            "127.0.0.1:0";
            "--journal-dir";
            "_build/bench-net-jobs";
          |]
          Unix.stdin Unix.stdout errfd
      in
      Unix.close errfd;
      let rec await tries =
        if tries = 0 then failwith "bench: net server never bound"
        else
          match net_scrape_port (net_read_err ()) with
          | Some port -> port
          | None ->
              Unix.sleepf 0.02;
              await (tries - 1)
      in
      let port = await 500 in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let wrk =
        Unix.create_process net_exe
          [| net_exe; "work"; "--connect"; Printf.sprintf "127.0.0.1:%d" port |]
          Unix.stdin devnull devnull
      in
      Unix.close devnull;
      at_exit (fun () ->
          List.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
            [ wrk; srv ]);
      net_state := Some port;
      port

let net_client_config =
  lazy
    {
      (Dist.Client.default_config
         ~fingerprint:(Experiments.Harness.registry_fingerprint ())
         ())
      with
      Dist.Client.backoff_base = 0.01;
    }

let bench_sweep_net () =
  let port = net_port () in
  let job =
    Experiments.Harness.sweep_job ~max_runs:sw0_runs sw0_scenario
  in
  match
    Experiments.Harness.submit_job_net
      (Lazy.force net_client_config)
      job
      (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  with
  | Ok (Dist.Client.Finished _, _) -> ()
  | Ok (Dist.Client.Suspended _, _) -> failwith "bench: net job suspended"
  | Error e -> failwith e

let net1_name = "NET1: same sweep, TCP service + 1 remote worker"
let net_family = [ (sw0_name, bench_sweep_inproc); (net1_name, bench_sweep_net) ]

(* The OBS family: the identical NET1 submit with the client's whole
   observability stack switched on — a Debug-level logger draining into
   a bounded ring, a metrics registry bumped per shard, a span file
   appended per phase — plus one stats round-trip per job, which is
   what an `asmsim top' refresh costs the fleet.
   [obs_overhead_ratio] (OBS1 / NET1) is the telemetry tax on a real
   networked job; the gate keeps the absolute row, and the committed
   ratio documents that telemetry stays under ~10%. *)

let obs_spans =
  lazy
    (let oc = open_out "_build/bench-obs.spans" in
     at_exit (fun () -> close_out_noerr oc);
     Dist.Span.create ~proc:(Printf.sprintf "bench:%d" (Unix.getpid ())) ~oc)

let obs_client_config =
  lazy
    (let ring = Svm.Log.ring 4096 in
     {
       (Lazy.force net_client_config) with
       Dist.Client.log =
         Svm.Log.make ~level:Svm.Log.Debug (Svm.Log.ring_sink ring);
       metrics = Some (Svm.Metrics.create ~wall_clock:false ());
       spans = Some (Lazy.force obs_spans);
     })

let bench_sweep_obs () =
  let port = net_port () in
  let job =
    Experiments.Harness.sweep_job ~max_runs:sw0_runs sw0_scenario
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let cfg = Lazy.force obs_client_config in
  (match Experiments.Harness.submit_job_net cfg job addr with
  | Ok (Dist.Client.Finished _, _) -> ()
  | Ok (Dist.Client.Suspended _, _) -> failwith "bench: obs job suspended"
  | Error e -> failwith e);
  match Dist.Client.stats_query cfg addr with
  | Ok _ -> ()
  | Error e -> failwith ("bench: stats query failed: " ^ e)

let obs1_name = "OBS1: same netted sweep, log + metrics + spans + stats"
let obs_family = [ (obs1_name, bench_sweep_obs) ]

(* The SOAK family: the continuous randomized runner end to end —
   seeded schedule derivation, journaled-arena rollback per run, and a
   per-batch cement into a real corpus store — at 1 and 4 domains. The
   corpus directory is reused across iterations: every record a repeat
   soak produces is already content-addressed there, so the store cost
   stays the steady-state one (dedup hits, no growth), which is the
   cost a long soak actually pays. *)

let soak_scenario =
  match Experiments.Scenario.find "safe_agreement" with
  | Ok s -> s
  | Error e -> failwith e

let soak_schedules = 300

let soak_dir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "asmsim-bench-soak-%s-%d" tag (Unix.getpid ()))

let soak_config jobs =
  {
    Experiments.Soak.default_config with
    Experiments.Soak.schedules = Some soak_schedules;
    batch = 100;
    jobs;
    gc_tune = false;
  }

let bench_soak ~tag jobs () =
  match
    Experiments.Soak.run (soak_config jobs) ~corpus_dir:(soak_dir tag)
      soak_scenario
  with
  | Ok _ -> ()
  | Error e -> failwith e

let soak1_name = "SOAK1: soak runner, 300 schedules -> corpus, jobs=1"
let soak4_name = "SOAK4: same soak, jobs=4"

let soak_family =
  [
    (soak1_name, bench_soak ~tag:"j1" 1);
    (soak4_name, bench_soak ~tag:"j4" 4);
  ]

(* The SDL family: the same in-process sweep as SW0's scenario, once
   from the builtin registry (SDL0) and once from DSL source text,
   parse + validate + compile *included in every iteration* (SDL1).
   [sdl_compile_overhead_ratio] (SDL1 / SDL0) is the whole-pipeline tax
   of declaring a scenario instead of hand-writing it; the gate holds
   it under 1.05 so the frontend stays negligible next to one sweep. *)

let sdl_twin_source =
  {|scenario "safe_agreement" {
  doc "Figure 1 safe agreement: agreement + validity"
  nprocs 3 min 2
  x 1
  explore_steps 12
  objects { sa SA }
  process all {
    propose SA [] pid
    let v = decide SA []
    decide v
  }
  property agreement in 0 .. nprocs - 1
}|}

let sdl0_name = "SDL0: fault sweep, builtin safe agreement"
let sdl1_name = "SDL1: same sweep from DSL source, compile included"

let bench_sdl_builtin () =
  let s =
    match Experiments.Scenario.find "safe_agreement" with
    | Ok s -> s
    | Error e -> failwith e
  in
  ignore (Experiments.Harness.sweep_scenario ~max_runs:sw0_runs s)

let bench_sdl_compiled () =
  let s =
    match Experiments.Scenario.of_source sdl_twin_source with
    | Ok s -> s
    | Error e -> failwith e
  in
  ignore (Experiments.Harness.sweep_scenario ~max_runs:sw0_runs s)

let sdl_family =
  [ (sdl0_name, bench_sdl_builtin); (sdl1_name, bench_sdl_compiled) ]

(* Soak a seeded bug twice into one corpus: every counterexample of the
   second pass is a content-address hit. The ratio (findings observed /
   unique findings stored) is what dedup saves a long soak — 2.0 here
   means the second pass stored nothing. *)
let corpus_dedup_ratio () =
  let s =
    match Experiments.Scenario.find "safe_agreement_no_cancel" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let dir = soak_dir "dedup" in
  let cfg =
    {
      Experiments.Soak.default_config with
      Experiments.Soak.seed = 7;
      schedules = Some 120;
      batch = 40;
      gc_tune = false;
    }
  in
  let run () =
    match Experiments.Soak.run cfg ~corpus_dir:dir s with
    | Ok o -> o
    | Error e -> failwith e
  in
  let a = run () in
  let b = run () in
  let unique =
    List.length a.Experiments.Soak.o_new_findings
    + List.length b.Experiments.Soak.o_new_findings
  in
  let observed =
    unique + a.Experiments.Soak.o_dup_findings
    + b.Experiments.Soak.o_dup_findings
  in
  if unique = 0 then None else Some (float_of_int observed /. float_of_int unique)

let tests =
  Test.make_grouped ~name:"mpcn"
    ([
      Test.make ~name:overhead_plain_name (Staged.stage bench_overhead_plain);
      Test.make ~name:overhead_swept_name (Staged.stage bench_overhead_swept);
      Test.make ~name:overhead_metrics_name
        (Staged.stage bench_overhead_metrics);
      Test.make ~name:"S0a: native snapshot, 4 procs x 25 rounds"
        (Staged.stage bench_native_snapshot);
      Test.make ~name:"S0b: Afek snapshot from registers, 3 x 8"
        (Staged.stage bench_afek_snapshot);
      Test.make ~name:"S0c: test&set from 2-cons, 6 procs"
        (Staged.stage bench_ts_from_cons);
      Test.make ~name:"F1: safe agreement, 5 procs"
        (Staged.stage bench_safe_agreement);
      Test.make ~name:"F5: x_compete, 6 procs x=2"
        (Staged.stage bench_x_compete);
      Test.make ~name:"F6a: x_safe_agreement, 6 procs x=2"
        (Staged.stage (bench_x_safe_agreement 2));
      Test.make ~name:"F6b: x_safe_agreement, 6 procs x=3"
        (Staged.stage (bench_x_safe_agreement 3));
      Test.make ~name:"base: native k-set ASM(5,2,1)"
        (Staged.stage (run_alg ~seed:10 kset_native));
      Test.make ~name:"base: grouped k-set ASM(6,4,2)"
        (Staged.stage (run_alg ~seed:11 kset_grouped));
      Test.make ~name:"F8a: native renaming ASM(6,2,1)"
        (Staged.stage (run_alg ~seed:12 renaming_native));
      Test.make ~name:"F2-F3: BG classic -> ASM(3,2,1)"
        (Staged.stage (run_alg ~seed:13 bg_classic));
      Test.make ~name:"F4: Section 3 sim -> ASM(6,2,1)"
        (Staged.stage (run_alg ~seed:14 sim_down));
      Test.make ~name:"S4a: Section 4 sim -> ASM(6,5,2)"
        (Staged.stage (run_alg ~seed:15 sim_up_x2));
      Test.make ~name:"S4b: Section 4 sim -> ASM(6,5,3)"
        (Staged.stage (run_alg ~seed:16 sim_up_x3));
      Test.make ~name:"MPa: window edge t'=t*x -> ASM(6,2,2)"
        (Staged.stage (run_alg ~seed:17 window_lo));
      Test.make ~name:"MPb: window edge t'=t*x+x-1 -> ASM(6,3,2)"
        (Staged.stage (run_alg ~seed:18 window_hi));
      Test.make ~name:"F7: 2-hop chain -> ASM(6,5,2)"
        (Staged.stage (run_alg ~seed:19 chain_2hop));
      Test.make ~name:"F8b: colored renaming -> ASM(4,2,2)"
        (Staged.stage (run_alg ~seed:20 colored_renaming));
      Test.make ~name:"UC: universal fetch&add, 4 procs x 3 ops"
        (Staged.stage bench_universal_counter);
      Test.make ~name:"FD: Paxos consensus with Omega, 5 procs"
        (Staged.stage bench_paxos);
      Test.make ~name:"SA: k-set from (3,2)-set objects, n=6"
        (Staged.stage bench_mlset);
    ]
    @ List.map
        (fun (name, body) -> Test.make ~name (Staged.stage body))
        (explore_family @ net_family @ obs_family @ soak_family @ sdl_family))

let estimate_of tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt results name with
      | None -> None
      | Some ols -> (
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Some (name, est)
          | Some [] | None -> None))
    (Test.names tests)

let estimate_table () = estimate_of tests

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* BENCH_svm.json: per-benchmark ns/run plus the sweep-harness overhead
   ratio (swept / plain of the OV pair above) — the number CI watches so
   the fault machinery never silently becomes the bottleneck. *)
let emit_json estimates =
  let find name =
    (* bechamel prefixes the group name ("mpcn/..."). *)
    List.find_map
      (fun (n, est) ->
        if String.length n >= String.length name
           && String.equal
                (String.sub n
                   (String.length n - String.length name)
                   (String.length name))
                name
        then Some est
        else None)
      estimates
  in
  let ratio =
    match (find overhead_plain_name, find overhead_swept_name) with
    | Some p, Some s when p > 0. -> Some (s /. p)
    | _ -> None
  in
  (* OV2 / OV1: the marginal cost of the metrics registry on top of the
     full sweep harness — the "pay-for-what-you-use" number. *)
  let metrics_ratio =
    match (find overhead_swept_name, find overhead_metrics_name) with
    | Some s, Some m when s > 0. -> Some (m /. s)
    | _ -> None
  in
  (* EX / EXp4: what the full engine rebuild buys over the old
     copy-per-branch explorer on the same workload. *)
  let explore_ratio =
    match (find ex_name, find exp4_name) with
    | Some base, Some par when par > 0. -> Some (base /. par)
    | _ -> None
  in
  (* EXd15 / EXp415: the work-stealing engine against the plan engine
     on the deep workload — the gated parallel-exploration payoff. *)
  let par_ratio =
    match (find exd15_name, find exp415_name) with
    | Some plan, Some par when par > 0. -> Some (plan /. par)
    | _ -> None
  in
  (* NET1 / SW0: the same tax paid over loopback TCP — handshake,
     framed submit, journal, shard stream — with one remote worker. *)
  let net_ratio =
    match (find sw0_name, find net1_name) with
    | Some base, Some net when base > 0. -> Some (net /. base)
    | _ -> None
  in
  (* OBS1 / NET1: what the full telemetry stack (debug logger, metrics
     registry, span file, one stats round-trip) adds to the identical
     networked job — the pay-for-what-you-observe number. *)
  let obs_ratio =
    match (find net1_name, find obs1_name) with
    | Some base, Some obs when base > 0. -> Some (obs /. base)
    | _ -> None
  in
  (* SDL1 / SDL0: parse + validate + compile of the DSL twin amortized
     over one sweep — the declarative frontend's whole-pipeline tax. *)
  let sdl_ratio =
    match (find sdl0_name, find sdl1_name) with
    | Some base, Some sdl when base > 0. -> Some (sdl /. base)
    | _ -> None
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, est) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %.1f}%s\n"
           (json_escape name) est
           (if i = List.length estimates - 1 then "" else ",")))
    estimates;
  Buffer.add_string b "  ],\n";
  (match ratio with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"sweep_overhead_ratio\": %.3f,\n" r)
  | None -> Buffer.add_string b "  \"sweep_overhead_ratio\": null,\n");
  (match metrics_ratio with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"metrics_overhead_ratio\": %.3f,\n" r)
  | None -> Buffer.add_string b "  \"metrics_overhead_ratio\": null,\n");
  (match explore_ratio with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"explore_speedup_ratio\": %.3f,\n" r)
  | None -> Buffer.add_string b "  \"explore_speedup_ratio\": null,\n");
  (match par_ratio with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"par_speedup_ratio\": %.3f,\n" r)
  | None -> Buffer.add_string b "  \"par_speedup_ratio\": null,\n");
  (match net_ratio with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"net_overhead_ratio\": %.3f,\n" r)
  | None -> Buffer.add_string b "  \"net_overhead_ratio\": null,\n");
  (match obs_ratio with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"obs_overhead_ratio\": %.3f,\n" r)
  | None -> Buffer.add_string b "  \"obs_overhead_ratio\": null,\n");
  (match sdl_ratio with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"sdl_compile_overhead_ratio\": %.3f,\n" r)
  | None -> Buffer.add_string b "  \"sdl_compile_overhead_ratio\": null,\n");
  (* Schedules/second of the 4-domain soak row — the throughput a long
     soak sustains, corpus writes included. *)
  let soak_rate =
    match find soak4_name with
    | Some ns when ns > 0. -> Some (float_of_int soak_schedules /. (ns /. 1e9))
    | _ -> None
  in
  (match soak_rate with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"soak_schedules_per_sec\": %.1f,\n" r)
  | None -> Buffer.add_string b "  \"soak_schedules_per_sec\": null,\n");
  let dedup = corpus_dedup_ratio () in
  (match dedup with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  \"corpus_dedup_ratio\": %.3f\n" r)
  | None -> Buffer.add_string b "  \"corpus_dedup_ratio\": null\n");
  Buffer.add_string b "}\n";
  let oc = open_out "BENCH_svm.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  (* One compact line per bench run, appended so ratio drift is
     visible across commits without diffing full BENCH_svm.json. *)
  let hist = Buffer.create 256 in
  let num = function
    | Some r -> Printf.sprintf "%.3f" r
    | None -> "null"
  in
  Buffer.add_string hist
    (Printf.sprintf
       "{\"date\": \"%s\", \"sweep_overhead\": %s, \"explore_speedup\": %s, \
        \"par_speedup\": %s, \"net_overhead\": %s, \"obs_overhead\": %s}\n"
       (let t = Unix.gmtime (Unix.gettimeofday ()) in
        Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
          (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
          t.Unix.tm_sec)
       (num ratio) (num explore_ratio) (num par_ratio) (num net_ratio)
       (num obs_ratio));
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_history.jsonl"
  in
  output_string oc (Buffer.contents hist);
  close_out oc;
  (match ratio with
  | Some r -> Printf.printf "sweep overhead ratio: %.2fx\n" r
  | None -> ());
  (match metrics_ratio with
  | Some r -> Printf.printf "metrics overhead ratio: %.2fx\n" r
  | None -> ());
  (match explore_ratio with
  | Some r -> Printf.printf "explore speedup ratio: %.2fx\n" r
  | None -> ());
  (match par_ratio with
  | Some r -> Printf.printf "par speedup ratio: %.2fx\n" r
  | None -> ());
  (match net_ratio with
  | Some r -> Printf.printf "net overhead ratio: %.2fx\n" r
  | None -> ());
  (match obs_ratio with
  | Some r -> Printf.printf "obs overhead ratio: %.2fx\n" r
  | None -> ());
  (match sdl_ratio with
  | Some r -> Printf.printf "sdl compile overhead ratio: %.2fx\n" r
  | None -> ());
  (match soak_rate with
  | Some r -> Printf.printf "soak throughput: %.0f schedules/sec\n" r
  | None -> ());
  (match dedup with
  | Some r -> Printf.printf "corpus dedup ratio: %.2fx\n" r
  | None -> ());
  print_endline "wrote BENCH_svm.json"

(* --gate FILE: the regression gate. Re-times the EX, NET, OBS, SOAK and SDL
   families with the same bechamel estimator that produced the
   committed BENCH_svm.json — cold wall-clock sampling is not
   comparable to the OLS per-run estimate (a parallel-explorer row
   measured after the multi-second baseline rows pays that history's
   major-heap pollution and reads 2-5x its steady-state cost on a
   small machine) — and fails if any row regressed more than 1.5x
   against the committed numbers. Only those rows are gated: they are
   the ones the explorer engine and the job queue exist for, and the
   only rows slow enough for timing to be trustworthy. *)

let gate_slack = 1.5

(* Floor on the re-measured EXd15 / EXp415 ratio: the work-stealing
   engine must keep beating the plan engine by at least this much on
   the deep workload, whatever this machine's absolute speed. *)
let par_speedup_bar = 2.0

(* Ceiling on the re-measured SDL1 / SDL0 ratio: compiling a scenario
   from source must stay negligible next to the sweep it feeds. *)
let sdl_compile_bar = 1.05

let committed_ns json name =
  let open Svm.Json in
  match Option.bind (member "benchmarks" json) to_list with
  | None -> None
  | Some rows ->
      List.find_map
        (fun row ->
          match Option.bind (member "name" row) to_str with
          | Some n when String.ends_with ~suffix:name n -> (
              match member "ns_per_run" row with
              | Some (Float f) -> Some f
              | Some (Int i) -> Some (float_of_int i)
              | _ -> None)
          | _ -> None)
        rows

let gate_against file =
  let txt = In_channel.with_open_text file In_channel.input_all in
  let json =
    match Svm.Json.of_string txt with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "bench gate: cannot parse %s: %s\n" file e;
        exit 2
  in
  let families =
    explore_family @ net_family @ obs_family @ soak_family @ sdl_family
  in
  let committed =
    List.map
      (fun (name, _) ->
        match committed_ns json name with
        | None ->
            Printf.eprintf "bench gate: no committed row for %s in %s\n" name
              file;
            exit 2
        | Some ns -> (name, ns))
      families
  in
  let measured =
    estimate_of
      (Test.make_grouped ~name:"mpcn"
         (List.map
            (fun (name, body) -> Test.make ~name (Staged.stage body))
            families))
  in
  let failed = ref false in
  List.iter
    (fun (name, committed) ->
      match
        List.find_map
          (fun (n, est) ->
            if String.ends_with ~suffix:name n then Some est else None)
          measured
      with
      | None ->
          Printf.eprintf "bench gate: no measurement for %s\n" name;
          exit 2
      | Some ns ->
          let r = ns /. committed in
          let ok = r <= gate_slack in
          if not ok then failed := true;
          Printf.printf "%-56s %9.1f ms vs %9.1f ms  %.2fx  %s\n" name
            (ns /. 1e6) (committed /. 1e6) r
            (if ok then "ok" else "REGRESSED"))
    committed;
  (* The parallel-exploration payoff is gated as a live ratio of two
     rows from the same measurement pass (so machine speed cancels),
     not against the committed file. *)
  let measured_ns name =
    List.find_map
      (fun (n, est) ->
        if String.ends_with ~suffix:name n then Some est else None)
      measured
  in
  (match (measured_ns exd15_name, measured_ns exp415_name) with
  | Some plan, Some par when par > 0. ->
      let r = plan /. par in
      let ok = r >= par_speedup_bar in
      if not ok then failed := true;
      Printf.printf "%-56s %9.1f ms vs %9.1f ms  %.2fx  %s\n"
        "par_speedup_ratio (EXd15 / EXp415, bar 2.00x)" (plan /. 1e6)
        (par /. 1e6) r
        (if ok then "ok" else "BELOW BAR")
  | _ ->
      failed := true;
      Printf.eprintf "bench gate: cannot compute par_speedup_ratio\n");
  (* The DSL frontend tax is likewise a live same-pass ratio. *)
  (match (measured_ns sdl0_name, measured_ns sdl1_name) with
  | Some base, Some sdl when base > 0. ->
      let r = sdl /. base in
      let ok = r <= sdl_compile_bar in
      if not ok then failed := true;
      Printf.printf "%-56s %9.1f ms vs %9.1f ms  %.2fx  %s\n"
        "sdl_compile_overhead_ratio (SDL1 / SDL0, bar 1.05x)" (sdl /. 1e6)
        (base /. 1e6) r
        (if ok then "ok" else "ABOVE BAR")
  | _ ->
      failed := true;
      Printf.eprintf "bench gate: cannot compute sdl_compile_overhead_ratio\n");
  if !failed then begin
    Printf.eprintf
      "bench gate: EX/NET/OBS/SOAK/SDL families regressed beyond %.1fx, \
       par_speedup_ratio fell below %.1fx, or sdl_compile_overhead_ratio \
       rose above %.2fx\n"
      gate_slack par_speedup_bar sdl_compile_bar;
    exit 1
  end
  else
    Printf.printf
      "bench gate: EX/NET/OBS/SOAK/SDL families within %.1fx of %s, \
       par_speedup_ratio >= %.1fx, sdl_compile_overhead_ratio <= %.2fx\n"
      gate_slack file par_speedup_bar sdl_compile_bar

let () =
  let gate = ref None in
  Array.iteri
    (fun i a ->
      if String.equal a "--gate" && i + 1 < Array.length Sys.argv then
        gate := Some Sys.argv.(i + 1))
    Sys.argv;
  match !gate with
  | Some file -> gate_against file
  | None ->
  let json = Array.exists (String.equal "--json") Sys.argv in
  if json then emit_json (estimate_table ())
  else begin
    (* The paper's "table": the Section 5.4 equivalence classes. *)
    print_string (Experiments.Exp_sec54.classes_table ~t':8 ~x_max:9);
    print_newline ();
    let estimates = estimate_table () in
    Printf.printf "%-56s %14s\n" "benchmark (one complete run)" "time/run";
    Printf.printf "%s\n" (String.make 72 '-');
    List.iter
      (fun (name, est) -> Printf.printf "%-56s %11.3f ms\n" name (est /. 1e6))
      estimates
  end
