(* asmsim — command-line interface to the reproduction.

   Subcommands:
     classes     print the Section 5.4 equivalence-class table
     canonical   canonical form of one model
     run-task    run a task algorithm natively under a seeded adversary
     simulate    run it under a simulation into another model
     experiment  run one experiment (or all) and print the report
     sweep       systematic fault sweeping under monitors
     explore     exhaustive schedule enumeration with pruning
     replay      re-execute a replay artifact bit-for-bit
     trace       export a replay artifact as a timeline (chrome/text/csv)
     trace-check validate a Chrome trace export (CI)
     trace-merge fuse per-process --spans files into one Chrome trace
     stats       metrics snapshot of a replayed or fresh run
     serve       list or resume journalled distributed jobs
     work        worker-process mode of the distributed runner (internal)
     top         live status view of a running network service

   Exit codes, uniform across every subcommand:
     0  clean — the command ran and found nothing adverse (under
        --expect-violation: the expected finding was found)
     1  finding — a violation, counterexample, failed experiment check,
        or reproduced replay violation (inverted by --expect-violation)
     2  usage or input error — unknown subcommand, flag, scenario, task
        or experiment id; unreadable artifact or journal
     3  internal error — unexpected exception, replay divergence from
        the recorded violation, broken worker protocol, hostile shard,
        or any distributed-run failure *)

open Cmdliner

let model_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ n; t; x ] -> (
        try Ok (Core.Model.make ~n:(int_of_string n) ~t:(int_of_string t)
                  ~x:(int_of_string x))
        with Invalid_argument msg | Failure msg -> Error (`Msg msg))
    | _ -> Error (`Msg "expected n,t,x (e.g. 6,4,2)")
  in
  Arg.conv (parse, fun ppf m -> Core.Model.pp ppf m)

(* ---- classes ---- *)

let classes_cmd =
  let t' =
    Arg.(value & opt int 8 & info [ "t" ] ~docv:"T'" ~doc:"Crash bound t'.")
  in
  let x_max =
    Arg.(value & opt int 9 & info [ "x-max" ] ~docv:"X" ~doc:"Largest x.")
  in
  let run t' x_max = print_string (Experiments.Exp_sec54.classes_table ~t' ~x_max) in
  Cmd.v
    (Cmd.info "classes" ~doc:"Print the Section 5.4 equivalence-class table")
    Term.(const run $ t' $ x_max)

(* ---- canonical ---- *)

let canonical_cmd =
  let model =
    Arg.(
      required
      & pos 0 (some model_conv) None
      & info [] ~docv:"MODEL" ~doc:"Model as n,t,x.")
  in
  let run m =
    Format.printf "%a: power %d, canonical %a, BG canonical %a@."
      Core.Model.pp m (Core.Model.power m) Core.Model.pp
      (Core.Model.canonical m) Core.Model.pp
      (Core.Model.bg_canonical m)
  in
  Cmd.v (Cmd.info "canonical" ~doc:"Canonical form of a model")
    Term.(const run $ model)

(* ---- shared task/algorithm setup ---- *)

let task_arg =
  Arg.(
    value & opt string "kset:3"
    & info [ "task" ] ~docv:"TASK"
        ~doc:"Task: kset:K, consensus, renaming, trivial, approx.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Adversary seed.")

let crashes_arg =
  Arg.(
    value & opt int 0
    & info [ "crashes" ] ~docv:"C" ~doc:"Maximum crashes to inject.")

let parse_task ~n ~t s : (Tasks.Task.t * Core.Algorithm.t, string) result =
  match String.split_on_char ':' s with
  | [ "kset"; k ] ->
      let k = int_of_string k in
      if t < k then
        Ok (Tasks.Task.kset ~k, Tasks.Algorithms.kset_read_write ~n ~t ~k)
      else Error "kset needs t < k for the read/write algorithm"
  | [ "consensus" ] ->
      if t = 0 then
        Ok (Tasks.Task.consensus, Tasks.Algorithms.consensus_zero_resilient ~n)
      else Error "read/write consensus requires t = 0"
  | [ "renaming" ] ->
      Ok
        ( Tasks.Task.renaming ~slots:((2 * n) - 1),
          Tasks.Algorithms.renaming_read_write ~n ~t )
  | [ "trivial" ] -> Ok (Tasks.Task.trivial, Tasks.Algorithms.trivial ~n ~t)
  | [ "approx" ] ->
      Ok
        ( Tasks.Task.approximate ~scale:1024 ~eps:4,
          Tasks.Algorithms.approximate_agreement ~n ~t ~rounds:17 ~scale:1024 )
  | _ -> Error (Printf.sprintf "unknown task %S" s)

let print_run (task : Tasks.Task.t) (run : Experiments.Runner.run) =
  let open Svm in
  Format.printf "inputs:    [%s]@."
    (String.concat "; " (List.map string_of_int run.Experiments.Runner.inputs));
  Array.iteri
    (fun i o ->
      Format.printf "  p%d: %s@." i
        (match o with
        | Exec.Decided v -> Printf.sprintf "decided %d" v
        | Exec.Crashed -> "crashed"
        | Exec.Blocked -> "blocked"
        | Exec.Stuck -> "stuck"))
    run.Experiments.Runner.result.Exec.outcomes;
  Format.printf "steps: %d;  validity: %s@."
    run.Experiments.Runner.result.Exec.total_steps
    (match Experiments.Runner.validate ~task run with
    | Ok () -> "ok"
    | Error m -> "VIOLATED: " ^ m)

(* ---- run-task ---- *)

let run_task_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Processes.") in
  let t = Arg.(value & opt int 2 & info [ "t" ] ~doc:"Crash bound.") in
  let run n t task seed crashes =
    match parse_task ~n ~t task with
    | Error m ->
        prerr_endline m;
        exit 2
    | Ok (task, alg) ->
        let r =
          Experiments.Runner.one_run ~task ~alg ~seed ~max_crashes:crashes ()
        in
        Format.printf "algorithm: %s in %s@." alg.Core.Algorithm.name
          (Core.Model.to_string alg.Core.Algorithm.model);
        print_run task r
  in
  Cmd.v
    (Cmd.info "run-task" ~doc:"Run a task algorithm natively")
    Term.(const run $ n $ t $ task_arg $ seed_arg $ crashes_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Source processes.") in
  let t = Arg.(value & opt int 2 & info [ "t" ] ~doc:"Source crash bound.") in
  let target =
    Arg.(
      required
      & opt (some model_conv) None
      & info [ "target" ] ~docv:"MODEL" ~doc:"Target model n,t,x.")
  in
  let colored =
    Arg.(value & flag & info [ "colored" ] ~doc:"Use the colored simulation.")
  in
  let run n t task seed crashes target colored =
    match parse_task ~n ~t task with
    | Error m ->
        prerr_endline m;
        exit 2
    | Ok (task, source) ->
        let alg =
          if colored then Core.Bg.colored ~source ~target
          else Core.Bg.to_model ~source ~target
        in
        Format.printf "simulation: %s@." alg.Core.Algorithm.name;
        let r =
          Experiments.Runner.one_run ~budget:5_000_000 ~task ~alg ~seed
            ~max_crashes:crashes ()
        in
        print_run task r
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a task under a BG-style simulation")
    Term.(
      const run $ n $ t $ task_arg $ seed_arg $ crashes_arg $ target $ colored)

(* ---- chain ---- *)

let chain_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Source processes.") in
  let t = Arg.(value & opt int 2 & info [ "t" ] ~doc:"Source crash bound.") in
  let target =
    Arg.(
      required
      & opt (some model_conv) None
      & info [ "target" ] ~docv:"MODEL" ~doc:"Equivalent target model n,t,x.")
  in
  let run n t task seed target =
    match parse_task ~n ~t task with
    | Error m ->
        prerr_endline m;
        exit 2
    | Ok (task, source) ->
        let via = Core.Bg.figure7_chain ~source ~target in
        Format.printf "Figure 7 chain: %s"
          (Core.Model.to_string source.Core.Algorithm.model);
        List.iter (fun m -> Format.printf " -> %s" (Core.Model.to_string m)) via;
        Format.printf "@.(each arrow is one full BG-style simulation; cost multiplies per hop)@.";
        let alg = Core.Bg.chain ~source ~via in
        let r =
          Experiments.Runner.one_run ~budget:50_000_000 ~task ~alg ~seed
            ~max_crashes:0 ()
        in
        print_run task r
  in
  Cmd.v
    (Cmd.info "chain"
       ~doc:"Run a task through the full Figure 7 equivalence chain")
    Term.(const run $ n $ t $ task_arg $ seed_arg $ target)

(* ---- overhead ---- *)

let overhead_cmd =
  let run () = print_string (Experiments.Exp_scale.overhead_table ()) in
  Cmd.v
    (Cmd.info "overhead" ~doc:"Print the simulation step-cost table")
    Term.(const run $ const ())

(* ---- experiment ---- *)

let experiment_cmd =
  let id =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id, or 'all'.")
  in
  let markdown =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Emit markdown.")
  in
  let run id markdown =
    let reports =
      if String.equal id "all" then
        List.map (fun (_, _, run) -> run ()) Experiments.Registry.all
      else
        match Experiments.Registry.find id with
        | Some run -> [ run () ]
        | None ->
            Format.eprintf "unknown experiment %s (have: %s)@." id
              (String.concat ", " (Experiments.Registry.ids ()));
            exit 2
    in
    List.iter
      (fun r ->
        if markdown then print_string (Experiments.Report.to_markdown r)
        else Format.printf "%a@." Experiments.Report.pp r)
      reports;
    let failed = List.filter (fun r -> not (Experiments.Report.all_ok r)) reports in
    if not markdown then begin
      Format.printf "-------------------------------------------@.";
      List.iter
        (fun r -> Format.printf "%a@." Experiments.Report.pp_summary_line r)
        reports
    end;
    if failed <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run reproduction experiments")
    Term.(const run $ id $ markdown)

(* ---- sweep ---- *)

let scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "algo" ] ~docv:"SCENARIO"
        ~doc:
          (Printf.sprintf
             "Scenario to run: %s, or any name registered via \
              --scenario-file/--scenario-dir."
             (String.concat ", " (Experiments.Scenario.names ()))))

(* ---- DSL scenario files ---- *)

let scenario_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario-file" ] ~docv:"FILE.sdl"
        ~doc:
          "Load, validate and register the DSL scenario in FILE; when \
           --algo is not given, FILE's scenario is the one run.")

let scenario_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario-dir" ] ~docv:"DIR"
        ~doc:
          "Register every *.sdl file in DIR (non-recursive); pick one by \
           name with --algo.")

let read_sdl_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m ->
      Format.eprintf "%s@." m;
      exit 2

let register_sdl_file path =
  match Experiments.Scenario.register_source ~path (read_sdl_file path) with
  | Ok s -> s.Experiments.Scenario.name
  | Error m ->
      Format.eprintf "%s:%s@." path m;
      exit 2

let register_sdl_dir dir =
  match Sys.readdir dir with
  | exception Sys_error m ->
      Format.eprintf "%s@." m;
      exit 2
  | entries ->
      let sdl =
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".sdl")
        |> List.sort compare
      in
      if sdl = [] then begin
        Format.eprintf "no .sdl files in %s@." dir;
        exit 2
      end;
      List.iter
        (fun f -> ignore (register_sdl_file (Filename.concat dir f)))
        sdl

(* Register any DSL sources, then settle which scenario name to run:
   an explicit --algo wins, else the --scenario-file's own name. *)
let resolve_scenario ~cmd name file dir =
  Option.iter register_sdl_dir dir;
  let file_name = Option.map register_sdl_file file in
  match (name, file_name) with
  | Some n, _ -> n
  | None, Some n -> n
  | None, None ->
      Format.eprintf
        "%s: no scenario given: pass --algo NAME or --scenario-file \
         FILE.sdl@."
        cmd;
      exit 2

let pp_violation_line (v : Svm.Monitor.violation) =
  Format.printf "violation: %s: %s (step %d, p%d)@." v.Svm.Monitor.monitor
    v.Svm.Monitor.message v.Svm.Monitor.step v.Svm.Monitor.pid

(* ---- distributed-execution options, shared by sweep and explore ---- *)

let dist_arg =
  Arg.(
    value & opt int 0
    & info [ "dist" ] ~docv:"W"
        ~doc:
          "Shard the work across W worker OS processes (0 = in-process): a \
           private job queue on a Unix-domain socket only this user can \
           reach, served by W `asmsim work --connect' children. Output is bit-for-bit identical to the \
           in-process run; --jobs is ignored. Completed shards are \
           journalled under --journal-dir, so a run stopped by SIGTERM \
           suspends and can be picked up with --resume.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"JOB"
        ~doc:
          "Resume the journalled job JOB, re-running only its unfinished \
           shards: with --dist on a private fleet, with --connect on the \
           server that suspended it (the other parameters must describe \
           the same job).")

let shard_timeout_arg =
  Arg.(
    value & opt float 120.
    & info [ "shard-timeout" ] ~docv:"SEC"
        ~doc:
          "Cut the link of a worker that sits on one shard longer than SEC \
           seconds; the shard is reassigned.")

let shard_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-size" ] ~docv:"CELLS"
        ~doc:
          "Cells per shard (default: derived from the work size and the \
           worker count).")

let chaos_kill_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos-kill-shard" ] ~docv:"K"
        ~doc:
          "Fault-injection hook for --dist: cut the link of the worker \
           dealt shard K, once, right after dealing it — the shard is \
           re-dealt, the worker reconnects, and the output must stay \
           identical.")

let journal_dir_arg =
  Arg.(
    value
    & opt string Dist.Journal.default_dir
    & info [ "journal-dir" ] ~docv:"DIR"
        ~doc:"Where distributed jobs journal their completed shards.")

(* ---- leveled logging, shared by every long-running subcommand ----
   All diagnostics go to stderr so stdout stays byte-diffable against
   in-process runs; the default human rendering of Info records is the
   historical "[sub] message" format the smoke checks grep for. *)

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Diagnostic verbosity on stderr: one of debug, info, warn, \
           error. Levels below LEVEL are dropped at the source.")

let log_json_arg =
  Arg.(
    value & flag
    & info [ "log-json" ]
        ~doc:
          "Emit diagnostics as JSON lines (seq/level/sub/msg, no \
           timestamps) instead of human-readable text.")

let make_log ~json level_str =
  let level =
    match Svm.Log.level_of_string level_str with
    | Some l -> l
    | None ->
        Format.eprintf "unknown log level %S (known: debug, info, warn, \
                        error)@."
          level_str;
        exit 2
  in
  let write s =
    prerr_string s;
    prerr_newline ()
  in
  let sink =
    if json then Svm.Log.json_sink write else Svm.Log.human_sink write
  in
  Svm.Log.make ~level sink

(* ---- wall-clock span recording (cross-process tracing) ---- *)

let spans_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans" ] ~docv:"FILE"
        ~doc:
          "Append this process's wall-clock spans to FILE as JSON lines; \
           fuse the files of every participating process into one Chrome \
           trace with `asmsim trace-merge'.")

(* Lanes in the merged trace are keyed by process name, so stamp the pid
   in: two workers on one host must not share a lane. *)
let make_spans ~role = function
  | None -> None
  | Some file ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
      at_exit (fun () -> try close_out oc with Sys_error _ -> ());
      Some
        (Dist.Span.create
           ~proc:(Printf.sprintf "%s:%d" role (Unix.getpid ()))
           ~oc)

let dist_config ~log ~dist ~shard_timeout ~shard_size ~chaos ~journal_dir
    ~resume =
  let base = Dist.Coordinator.default_config ~workers:dist () in
  {
    base with
    Dist.Coordinator.shard_timeout;
    shard_size;
    chaos_kill_shard = Option.map (fun k -> (k, 1)) chaos;
    journal_dir = Some journal_dir;
    resume;
    log = Svm.Log.sub log "dist";
  }

(* Coordinator chatter goes to stderr: stdout of a --dist run must stay
   diffable against the in-process run's. *)
let print_dist_stats (st : Dist.Coordinator.stats) =
  Format.eprintf
    "[dist] job %s: %d shard(s) of %d cell(s); %d resumed, %d executed; %d \
     worker(s) spawned, %d reassignment(s)@."
    st.job_id st.shards st.shard_size st.resumed st.executed st.spawned st.reassigned

let suspend_note id =
  Format.eprintf "[dist] job %s suspended; pick it up with --resume %s@." id id

(* ---- network service plumbing, shared by sweep/explore --connect,
   work --connect and serve --listen; like [dist] chatter it all goes
   to stderr so stdout stays byte-diffable against in-process runs ---- *)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Submit the job to a running `asmsim serve --listen' daemon \
           instead of executing locally. Shard payloads stream back and \
           merge locally, so output is bit-for-bit identical to the \
           in-process run. With --resume JOB, continue a job the server \
           suspended while draining.")

let parse_addr_or_die s =
  match Dist.Net.parse_addr s with
  | Ok a -> a
  | Error m ->
      prerr_endline m;
      exit 2

let client_config ?metrics ?spans ~log () =
  {
    (Dist.Client.default_config
       ~fingerprint:(Experiments.Harness.registry_fingerprint ())
       ())
    with
    Dist.Client.log = Svm.Log.sub log "net";
    metrics;
    spans;
  }

let print_net_stats (st : Dist.Client.stats) =
  Format.eprintf
    "[net] job %s: %d shard(s) of %d cell(s); %d resumed, %d executed; %d \
     reconnect(s)@."
    st.Dist.Client.job_id st.Dist.Client.shards st.Dist.Client.shard_size
    st.Dist.Client.resumed st.Dist.Client.executed st.Dist.Client.reconnects

let net_suspend_note id =
  Format.eprintf
    "[net] job %s suspended (server draining); resubmit with --connect \
     ... --resume %s@."
    id id

(* The one off-process path of sweep and explore: [job] on a private
   fleet of [dist] workers, or through the serve daemon at [connect];
   [None] means run in-process. Stats and suspension notes go to
   stderr; a suspended job exits 0, a failed one 3. *)
let run_remote ~cmd ~log ~spans ~dist ~connect ~resume ~shard_timeout
    ~shard_size ~chaos ~journal_dir ?on_progress job =
  let finish flag r =
    match r with
    | Error m ->
        Format.eprintf "%s --%s failed: %s@." cmd flag m;
        exit 3
    | Ok (Dist.Client.Suspended _) -> exit 0
    | Ok (Dist.Client.Finished o) -> Some o
  in
  let note on_suspend print (sub, st) =
    print st;
    (match sub with Dist.Client.Suspended id -> on_suspend id | _ -> ());
    sub
  in
  if dist > 0 then
    finish "dist"
      (Result.map
         (note suspend_note print_dist_stats)
         (Experiments.Harness.run_job_dist ?on_progress
            (dist_config ~log ~dist ~shard_timeout ~shard_size ~chaos
               ~journal_dir ~resume)
            job))
  else
    Option.bind connect (fun addrstr ->
        finish "connect"
          (Result.map
             (note net_suspend_note print_net_stats)
             (Experiments.Harness.submit_job_net ?resume
                (client_config ~log ?spans:(make_spans ~role:"client" spans) ())
                job (parse_addr_or_die addrstr))))

(* ---- outcome printers, shared by the in-process and --dist paths and
   by serve; each returns whether a finding was printed ---- *)

let print_sweep_outcome ~out (outcome : Svm.Explore.sweep_outcome) =
  (match outcome.Svm.Explore.deadlock with
  | None -> ()
  | Some d ->
      Format.printf
        "deadlock finding: every process halted without deciding under %a@."
        Svm.Explore.pp_fault_schedule d);
  match outcome.Svm.Explore.found with
  | None ->
      Format.printf "no violation in %d runs%s@." outcome.Svm.Explore.runs
        (if outcome.Svm.Explore.exhausted then
           " (run budget hit; coverage partial)"
         else "; fault box covered");
      false
  | Some f ->
      pp_violation_line f.Svm.Explore.violation;
      Format.printf "found by:  %a@.shrunk to: %a  (%d shrink re-runs)@."
        Svm.Explore.pp_fault_schedule f.Svm.Explore.fault
        Svm.Explore.pp_fault_schedule f.Svm.Explore.shrunk
        f.Svm.Explore.shrink_runs;
      let oc = open_out out in
      output_string oc f.Svm.Explore.replay;
      close_out oc;
      Format.printf "replay artifact written to %s@." out;
      true

let print_explore_result (r : Svm.Univ.t Svm.Explore.result) =
  Format.printf
    "explored %d run(s), pruned %d state(s) + %d commuting + %d \
     source-blocked transition(s)%s@."
    r.Svm.Explore.explored r.Svm.Explore.pruned_states
    r.Svm.Explore.pruned_commutes r.Svm.Explore.pruned_source
    (if r.Svm.Explore.exhausted_budget then
       " (run budget hit; coverage partial)"
     else "");
  match r.Svm.Explore.counterexample with
  | None ->
      Format.printf "no counterexample within scope@.";
      false
  | Some (run, msg) ->
      Format.printf "counterexample: %s@.schedule: %s%s@.crashed: [%s]@." msg
        run.Svm.Explore.schedule
        (if run.Svm.Explore.truncated then " (truncated)" else "")
        (String.concat ";" (List.map string_of_int run.Svm.Explore.crashed));
      true

let sweep_cmd =
  let t =
    Arg.(
      value & opt int 1
      & info [ "t" ] ~docv:"T" ~doc:"Sweep fault schedules of up to T crashes.")
  in
  let n =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Override the scenario's process count.")
  in
  let window =
    Arg.(
      value & opt int 6
      & info [ "window" ] ~docv:"W"
          ~doc:"Crash-point op-index window per victim.")
  in
  let runs =
    Arg.(
      value & opt int 5_000
      & info [ "runs" ] ~docv:"R" ~doc:"Maximum runs before giving up.")
  in
  let budget =
    Arg.(
      value & opt int 20_000
      & info [ "budget" ] ~docv:"B" ~doc:"Per-run step budget.")
  in
  let out =
    Arg.(
      value & opt string "failure.replay"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the replay artifact of a found violation.")
  in
  let tiers =
    Arg.(
      value & opt string "crash"
      & info [ "tiers" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated fault tiers to sweep: any of crash, omission, \
             recovery, byzantine.")
  in
  let expect_violation =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:
            "Invert the exit status: succeed (0) iff a violation was found \
             — for regression-gating known degradations, e.g. a healthy \
             object under the byzantine tier.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Fan runs out over J domains (capped at the core count); 0 \
             means one per core. Outcomes are identical at any job \
             count.")
  in
  let run name scenario_file scenario_dir nprocs t window runs budget out
      tiers expect_violation jobs dist resume shard_timeout shard_size chaos
      journal_dir connect log_level log_json spans =
    let name = resolve_scenario ~cmd:"sweep" name scenario_file scenario_dir in
    let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
    let log = make_log ~json:log_json log_level in
    let kinds =
      String.split_on_char ',' tiers
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match Svm.Adversary.fault_kind_of_name s with
             | Some k -> k
             | None ->
                 Format.eprintf
                   "unknown fault tier %S (known: crash, omission, recovery, \
                    byzantine)@."
                   s;
                 exit 2)
    in
    match Experiments.Scenario.find ?nprocs name with
    | Error m ->
        prerr_endline m;
        exit 2
    | Ok s ->
        Format.printf
          "sweeping %s (n=%d, x=%d): up to %d fault(s) of {%s}, window %d@."
          s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
          s.Experiments.Scenario.x t
          (String.concat ","
             (List.map Svm.Adversary.fault_kind_name kinds))
          window;
        (* Heartbeat on stderr so long sweeps are never silent. *)
        let on_progress ~runs =
          if runs mod 1_000 = 0 then Format.eprintf "... %d runs swept@." runs
        in
        let outcome =
          match
            run_remote ~cmd:"sweep" ~log ~spans ~dist ~connect ~resume
              ~shard_timeout ~shard_size ~chaos ~journal_dir ~on_progress
              (Experiments.Harness.sweep_job ~kinds ~max_faults:t
                 ~op_window:window ~max_runs:runs ~budget s)
          with
          | Some (Dist.Client.Sweep_outcome o) -> o
          | Some (Dist.Client.Explore_outcome _) ->
              Format.eprintf "sweep: the job came back as an exploration@.";
              exit 3
          | None ->
              Experiments.Harness.sweep_scenario ~kinds ~max_faults:t
                ~op_window:window ~max_runs:runs ~budget ~jobs ~on_progress s
        in
        let violated = print_sweep_outcome ~out outcome in
        if violated <> expect_violation then exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Systematically sweep fault points (crash-stop, omission, \
          crash-recovery, byzantine) under online invariant monitors; on \
          violation, shrink the schedule and write a replay artifact")
    Term.(
      const run $ scenario_arg $ scenario_file_arg $ scenario_dir_arg $ n $ t
      $ window $ runs $ budget $ out $ tiers $ expect_violation $ jobs
      $ dist_arg $ resume_arg $ shard_timeout_arg $ shard_size_arg
      $ chaos_kill_arg $ journal_dir_arg $ connect_arg $ log_level_arg
      $ log_json_arg $ spans_arg)

(* ---- explore ---- *)

let explore_cmd =
  let steps =
    Arg.(
      value & opt (some int) None
      & info [ "steps" ] ~docv:"D"
          ~doc:
            "Depth bound (scheduler choices); defaults to the scenario's \
             own exploration depth.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~docv:"C" ~doc:"Crash budget per run.")
  in
  let n =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Override the scenario's process count.")
  in
  let runs =
    Arg.(
      value & opt int 2_000_000
      & info [ "runs" ] ~docv:"R" ~doc:"Maximum runs before giving up.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Fan subtree tasks out over J domains (capped at the core \
             count); 0 means one per core. Results are identical at any \
             job count.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON snapshot of the explorer's deterministic \
             counters (runs, pruning tallies, visited hits/misses) to \
             FILE — byte-identical at any --jobs value (in-process runs \
             only).")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:
            "Disable state-fingerprint deduplication and sleep-set \
             commutation pruning: enumerate every interleaving.")
  in
  let expect_violation =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:"Invert the exit status: succeed (0) iff a counterexample \
                was found.")
  in
  let run name scenario_file scenario_dir nprocs steps crashes runs jobs
      no_dedup expect_violation metrics_out dist resume shard_timeout
      shard_size chaos journal_dir connect log_level log_json spans =
    let name =
      resolve_scenario ~cmd:"explore" name scenario_file scenario_dir
    in
    let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
    let log = make_log ~json:log_json log_level in
    match Experiments.Scenario.find ?nprocs name with
    | Error m ->
        prerr_endline m;
        exit 2
    | Ok s ->
        let depth =
          match steps with
          | Some d -> d
          | None -> s.Experiments.Scenario.explore_steps
        in
        (* The header deliberately omits the job count: stdout must
           diff clean across --jobs values (the determinism make
           target holds it to that). *)
        Format.printf
          "exploring %s (n=%d, x=%d): depth %d, %d crash(es), dedup %s@."
          s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
          s.Experiments.Scenario.x depth crashes
          (if no_dedup then "off" else "on");
        let on_progress ~runs =
          if runs mod 100_000 = 0 then
            Format.eprintf "... %d runs explored@." runs
        in
        if
          (dist > 0 || connect <> None)
          && not s.Experiments.Scenario.explorable
        then begin
          Format.eprintf "scenario %s is not explorable@."
            s.Experiments.Scenario.name;
          exit 2
        end;
        let result =
          match
            run_remote ~cmd:"explore" ~log ~spans ~dist ~connect ~resume
              ~shard_timeout ~shard_size ~chaos ~journal_dir ~on_progress
              (Experiments.Harness.explore_job ~max_crashes:crashes
                 ~max_runs:runs ~max_steps:depth ~dedup:(not no_dedup) s)
          with
          | Some (Dist.Client.Explore_outcome r) -> Ok r
          | Some (Dist.Client.Sweep_outcome _) ->
              Format.eprintf "explore: the job came back as a sweep@.";
              exit 3
          | None ->
            let metrics =
              Option.map (fun _ -> Svm.Metrics.create ()) metrics_out
            in
            let r =
              Experiments.Harness.explore_scenario ~max_crashes:crashes
                ~max_runs:runs ~max_steps:depth ~jobs ?metrics
                ~dedup:(not no_dedup) ~on_progress s
            in
            (match (r, metrics, metrics_out) with
            | Ok _, Some m, Some file ->
                let oc = open_out file in
                output_string oc (Svm.Metrics.snapshot_string ~pretty:true m);
                close_out oc
            | _ -> ());
            r
        in
        (match result with
        | Error m ->
            prerr_endline m;
            exit 2
        | Ok r ->
            let violated = print_explore_result r in
            if violated <> expect_violation then exit 1)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively enumerate schedules (and crash placements) of a \
          scenario up to a depth bound, with state-fingerprint \
          deduplication, commutation pruning and multicore fan-out — \
          in-process domains (--jobs) or worker processes (--dist)")
    Term.(
      const run $ scenario_arg $ scenario_file_arg $ scenario_dir_arg $ n
      $ steps $ crashes $ runs $ jobs $ no_dedup $ expect_violation
      $ metrics_out $ dist_arg $ resume_arg $ shard_timeout_arg
      $ shard_size_arg $ chaos_kill_arg $ journal_dir_arg $ connect_arg
      $ log_level_arg $ log_json_arg $ spans_arg)

(* ---- replay ---- *)

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Replay artifact written by sweep.")
  in
  let budget =
    Arg.(
      value & opt int 20_000
      & info [ "budget" ] ~docv:"B" ~doc:"Step budget for the re-run.")
  in
  let run file budget =
    let contents =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Svm.Trace.parse_replay contents with
    | Error e ->
        Format.eprintf "%s: %a@." file Svm.Trace.pp_parse_error e;
        exit 2
    | Ok (meta, decisions) -> (
        match Experiments.Scenario.of_replay_meta meta with
        | Error m ->
            Format.eprintf "%s: %s@." file m;
            exit 2
        | Ok s ->
            Format.printf "replaying %s against %s (n=%d): %d decisions@." file
              s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
              (List.length decisions);
            (match List.assoc_opt "schedule" meta with
            | Some sched -> Format.printf "recorded fault: %s@." sched
            | None -> ());
            let recorded =
              match
                (List.assoc_opt "monitor" meta, List.assoc_opt "step" meta)
              with
              | Some m, Some st -> Some (m, st)
              | _ -> None
            in
            let result =
              Svm.Explore.replay ~budget ~make:s.Experiments.Scenario.make
                ~monitors:s.Experiments.Scenario.monitors decisions
            in
            (* 0 clean, 1 violation reproduced, 3 diverged from the
               recorded violation (wrong monitor/step, or recorded but
               absent). Distinct from 2 = unreadable artifact above. *)
            match (result, recorded) with
            | Error v, Some (m, st) ->
                pp_violation_line v;
                let exact =
                  String.equal v.Svm.Monitor.monitor m
                  && String.equal (string_of_int v.Svm.Monitor.step) st
                in
                if exact then begin
                  Format.printf "reproduced: same monitor at the same step@.";
                  exit 1
                end
                else begin
                  Format.printf
                    "replay DIVERGED: violation differs from the recorded one \
                     (%s at step %s)@."
                    m st;
                  exit 3
                end
            | Error v, None ->
                pp_violation_line v;
                exit 1
            | Ok _, Some (m, st) ->
                Format.printf
                  "replay DIVERGED: run completed cleanly — recorded violation \
                   (%s at step %s) did NOT reproduce@."
                  m st;
                exit 3
            | Ok r, None ->
                Format.printf "run completed cleanly in %d steps@."
                  r.Svm.Exec.total_steps)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a recorded fault schedule bit-for-bit from a file")
    Term.(const run $ file $ budget)

(* ---- trace / trace-check / stats ---- *)

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_out out s =
  match out with
  | None -> print_string s
  | Some file ->
      let oc = open_out file in
      output_string oc s;
      close_out oc;
      Format.eprintf "written to %s@." file

(* Load a replay artifact and re-execute it, returning the scenario, its
   metadata and the recorded trace of the re-run. Exits 2 on unreadable
   artifacts or unknown scenarios, like [replay]. *)
let replay_for_trace ~budget file =
  let contents = read_file file in
  match Svm.Trace.parse_replay contents with
  | Error e ->
      Format.eprintf "%s: %a@." file Svm.Trace.pp_parse_error e;
      exit 2
  | Ok (meta, decisions) -> (
      match Experiments.Scenario.of_replay_meta meta with
      | Error m ->
          Format.eprintf "%s: %s@." file m;
          exit 2
      | Ok s ->
          let metrics = Svm.Metrics.create () in
          let result =
            Svm.Explore.replay ~budget ~metrics
              ~make:s.Experiments.Scenario.make
              ~monitors:s.Experiments.Scenario.monitors decisions
          in
          let trace =
            match result with
            | Ok r -> r.Svm.Exec.trace
            | Error v -> v.Svm.Monitor.trace
          in
          (s, meta, result, trace, metrics))

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

let budget_arg default =
  Arg.(
    value & opt int default
    & info [ "budget" ] ~docv:"B" ~doc:"Step budget for the re-run.")

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Replay artifact written by sweep.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("text", `Text); ("csv", `Csv) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: chrome, text, csv.")
  in
  let allow_partial =
    Arg.(
      value & flag
      & info [ "allow-partial" ]
          ~doc:
            "Export a Chrome trace even when the recorded event buffer was \
             truncated (the JSON is annotated with the dropped count).")
  in
  let run file format allow_partial budget out =
    let s, meta, result, trace, _ = replay_for_trace ~budget file in
    let trace =
      match trace with
      | Some t -> t
      | None ->
          Format.eprintf "%s: replay recorded no trace@." file;
          exit 2
    in
    let tl =
      Svm.Timeline.of_trace ~nprocs:s.Experiments.Scenario.nprocs trace
    in
    if tl.Svm.Timeline.dropped > 0 then
      Format.eprintf
        "warning: trace truncated — %d earlier events dropped, timeline \
         covers the kept suffix@."
        tl.Svm.Timeline.dropped;
    (match result with
    | Error v ->
        Format.eprintf "note: replay violates %s at step %d (as recorded)@."
          v.Svm.Monitor.monitor v.Svm.Monitor.step
    | Ok _ -> ());
    match format with
    | `Text -> write_out out (Svm.Timeline.to_text tl)
    | `Csv -> write_out out (Svm.Timeline.to_csv tl)
    | `Chrome ->
        if tl.Svm.Timeline.dropped > 0 && not allow_partial then begin
          Format.eprintf
            "refusing --format=chrome on a truncated trace (%d events \
             dropped): the timeline would silently look complete; pass \
             --allow-partial to export anyway@."
            tl.Svm.Timeline.dropped;
          exit 1
        end;
        let extra =
          ("scenario", s.Experiments.Scenario.name)
          :: ("artifact", file)
          :: (match List.assoc_opt "schedule" meta with
             | Some sched -> [ ("schedule", sched) ]
             | None -> [])
        in
        write_out out
          (Svm.Json.to_string ~pretty:true
             (Svm.Timeline.to_chrome ~meta:extra tl)
          ^ "\n")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Re-execute a replay artifact and export its timeline (Chrome \
          trace_event JSON for chrome://tracing or Perfetto, plain text, or \
          CSV), with the happens-before critical path and hottest instances")
    Term.(
      const run $ file $ format $ allow_partial $ budget_arg 20_000 $ out_arg)

let trace_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace JSON written by trace.")
  in
  let require_instants =
    Arg.(
      value & flag
      & info [ "require-instants" ]
          ~doc:"Fail unless the trace contains at least one fault instant.")
  in
  let run file require_instants =
    match Svm.Json.of_string (read_file file) with
    | Error e ->
        Format.eprintf "%s: not JSON: %s@." file e;
        exit 2
    | Ok json -> (
        match Svm.Timeline.validate_chrome json with
        | Error e ->
            Format.eprintf "%s: invalid chrome trace: %s@." file e;
            exit 1
        | Ok s ->
            Format.printf
              "%s: %d events; spans per pid: [%s]; %d fault instant(s); %d \
               dropped@."
              file s.Svm.Timeline.events
              (String.concat "; "
                 (List.map
                    (fun (pid, n) -> Printf.sprintf "p%d:%d" pid n)
                    s.Svm.Timeline.spans_per_pid))
              s.Svm.Timeline.instants s.Svm.Timeline.dropped;
            if require_instants && s.Svm.Timeline.instants = 0 then begin
              Format.eprintf "%s: no fault instants recorded@." file;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace export: well-formed events, instant count \
          matching the metadata, a span for every live process")
    Term.(const run $ file $ require_instants)

(* ---- trace-merge ---- *)

let trace_merge_cmd =
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Span files written with --spans, one per participating OS \
             process (serve, workers, clients).")
  in
  let run files out =
    let spans, skipped =
      List.fold_left
        (fun (acc, sk) file ->
          match Dist.Span.load_file file with
          | Ok (spans, skipped) -> (acc @ spans, sk + skipped)
          | Error m ->
              Format.eprintf "%s: %s@." file m;
              exit 2)
        ([], 0) files
    in
    if skipped > 0 then
      Format.eprintf
        "[trace] skipped %d unparseable line(s) (torn tails are expected \
         after a crash)@."
        skipped;
    if spans = [] then begin
      Format.eprintf "[trace] no spans found in %d file(s)@."
        (List.length files);
      exit 2
    end;
    let trace = Svm.Timeline.merge_processes spans in
    (match Svm.Json.member "otherData" trace with
    | Some od ->
        let i k =
          Option.value ~default:0
            (Option.bind (Svm.Json.member k od) Svm.Json.to_int)
        in
        Format.eprintf
          "[trace] merged %d span(s) across %d process(es); critical path \
           %d us@."
          (i "spans") (i "nprocs") (i "critical_path")
    | None -> ());
    write_out out (Svm.Json.to_string ~pretty:true trace ^ "\n")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Fuse per-process span files (--spans) into one Chrome trace: one \
          lane per OS process, spans correlated across the wire by job \
          fingerprint and shard index, with the cross-process critical \
          path in the metadata. The output passes `asmsim trace-check'.")
    Term.(const run $ files $ out_arg)

let stats_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Replay artifact to re-run under metrics.")
  in
  let algo =
    Arg.(
      value
      & opt (some string) None
      & info [ "algo" ] ~docv:"SCENARIO"
          ~doc:"Run a registered scenario fresh instead of a replay artifact.")
  in
  let wall =
    Arg.(
      value & flag
      & info [ "wall-clock" ]
          ~doc:
            "Include the non-deterministic wall-clock section (snapshots are \
             then not replay-comparable).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the snapshot as one compact JSON line (machine-readable; \
             byte-stable across replays) instead of pretty-printing.")
  in
  let run file algo scenario_file scenario_dir wall json budget out =
    Option.iter register_sdl_dir scenario_dir;
    let sdl_name = Option.map register_sdl_file scenario_file in
    let algo = match (algo, sdl_name) with Some a, _ -> Some a | None, n -> n in
    let snapshot_of metrics =
      Svm.Metrics.snapshot_string ~pretty:(not json) metrics ^ "\n"
    in
    match (file, algo) with
    | Some file, None ->
        let _, _, result, _, metrics = replay_for_trace ~budget file in
        (match result with
        | Error v ->
            Format.eprintf "note: replay violates %s at step %d@."
              v.Svm.Monitor.monitor v.Svm.Monitor.step
        | Ok _ -> ());
        write_out out (snapshot_of metrics)
    | None, Some name -> (
        match Experiments.Scenario.find name with
        | Error m ->
            prerr_endline m;
            exit 2
        | Ok s ->
            let metrics = Svm.Metrics.create ~wall_clock:wall () in
            let env, progs = s.Experiments.Scenario.make () in
            (match
               Svm.Exec.run ~budget ~metrics
                 ~monitors:(s.Experiments.Scenario.monitors ())
                 ~env
                 ~adversary:(Svm.Adversary.round_robin ())
                 progs
             with
            | (_ : Svm.Univ.t Svm.Exec.result) -> ()
            | exception Svm.Monitor.Violation v ->
                Format.eprintf "note: run violates %s at step %d@."
                  v.Svm.Monitor.monitor v.Svm.Monitor.step);
            write_out out (snapshot_of metrics))
    | Some _, Some _ | None, None ->
        Format.eprintf
          "stats: pass exactly one of FILE, --algo, or --scenario-file@.";
        exit 2
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Metrics snapshot (JSON) of a run: replay an artifact under a \
          registry, or run a registered scenario fresh")
    Term.(
      const run $ file $ algo $ scenario_file_arg $ scenario_dir_arg $ wall
      $ json $ budget_arg 50_000 $ out_arg)

(* ---- scenarios (registry listing) ---- *)

let scenarios_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the listing as one JSON document (machine-readable).")
  in
  let run json scenario_file scenario_dir =
    Option.iter register_sdl_dir scenario_dir;
    Option.iter (fun f -> ignore (register_sdl_file f)) scenario_file;
    let registered = Experiments.Scenario.registered_names () in
    let scenarios =
      (* a registered DSL scenario shadows its builtin twin, exactly as
         [find] resolves names *)
      List.filter
        (fun s -> not (List.mem s.Experiments.Scenario.name registered))
        (Experiments.Scenario.all ())
      @ Experiments.Scenario.registered_scenarios ()
    in
    let scenarios =
      List.sort
        (fun a b ->
          compare a.Experiments.Scenario.name b.Experiments.Scenario.name)
        scenarios
    in
    let source_str s =
      match s.Experiments.Scenario.origin with
      | Experiments.Scenario.Builtin -> "builtin"
      | Experiments.Scenario.Sdl_source { path = Some p; _ } -> p
      | Experiments.Scenario.Sdl_source { path = None; _ } -> "<source>"
    in
    if json then
      let entry s =
        Svm.Json.Obj
          [
            ("name", Svm.Json.String s.Experiments.Scenario.name);
            ("doc", Svm.Json.String s.Experiments.Scenario.doc);
            ("nprocs", Svm.Json.Int s.Experiments.Scenario.nprocs);
            ("x", Svm.Json.Int s.Experiments.Scenario.x);
            ("seeded_bug", Svm.Json.Bool s.Experiments.Scenario.seeded_bug);
            ("explorable", Svm.Json.Bool s.Experiments.Scenario.explorable);
            ("source", Svm.Json.String (source_str s));
          ]
      in
      print_string
        (Svm.Json.to_string ~pretty:true
           (Svm.Json.List (List.map entry scenarios))
        ^ "\n")
    else
      List.iter
        (fun s ->
          Format.printf "%-32s n=%d x=%d%s%s  [%s]@.  %s@."
            s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
            s.Experiments.Scenario.x
            (if s.Experiments.Scenario.seeded_bug then " seeded_bug" else "")
            (if s.Experiments.Scenario.explorable then " explorable" else "")
            (source_str s) s.Experiments.Scenario.doc)
        scenarios
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:
         "List every known scenario (builtins plus any registered DSL \
          files): name, doc, size, model, seeded-bug and explorability \
          flags, and where it came from")
    Term.(const run $ json $ scenario_file_arg $ scenario_dir_arg)

(* ---- sdl (DSL tooling) ---- *)

let sdl_cmd =
  let action =
    Arg.(
      required
      & pos 0
          (some (enum [ ("check", `Check); ("compile", `Compile); ("fmt", `Fmt) ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:"One of check (parse + validate), compile (also build the \
                programs and report the artifact shape), fmt (print the \
                canonical form).")
  in
  let file =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"FILE.sdl" ~doc:"The scenario source file.")
  in
  let nprocs =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Compile at N processes (compile only).")
  in
  let run action file nprocs =
    let src = read_sdl_file file in
    let fail_typed e =
      Format.eprintf "%s:%s@." file (Sdl.Ast.error_to_string e);
      exit 2
    in
    match action with
    | `Fmt -> (
        (* fmt is parse-only on purpose: a scenario that is structurally
           valid but rejected by the validator can still be formatted
           while being fixed *)
        match Sdl.Parser.parse src with
        | Error e -> fail_typed e
        | Ok sc -> print_string (Sdl.Pretty.to_string sc))
    | `Check -> (
        match Sdl.Compile.frontend src with
        | Error e -> fail_typed e
        | Ok sc ->
            Format.printf "ok: %s (nprocs=%d min=%d, x=%d, %d object(s), %d \
                           process block(s), %d propert%s)@."
              sc.Sdl.Ast.sc_name sc.Sdl.Ast.sc_nprocs sc.Sdl.Ast.sc_min_nprocs
              sc.Sdl.Ast.sc_x
              (List.length sc.Sdl.Ast.sc_objects)
              (List.length sc.Sdl.Ast.sc_procs)
              (List.length sc.Sdl.Ast.sc_props)
              (if List.length sc.Sdl.Ast.sc_props = 1 then "y" else "ies"))
    | `Compile -> (
        match Experiments.Scenario.of_source ?nprocs ~path:file src with
        | Error m ->
            Format.eprintf "%s:%s@." file m;
            exit 2
        | Ok s ->
            let env, progs = s.Experiments.Scenario.make () in
            let monitors = s.Experiments.Scenario.monitors () in
            Format.printf
              "compiled %s: nprocs=%d x=%d, %d program(s), %d monitor(s), \
               explore_steps=%d%s@."
              s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
              s.Experiments.Scenario.x (Array.length progs)
              (List.length monitors) s.Experiments.Scenario.explore_steps
              (if s.Experiments.Scenario.seeded_bug then " (seeded bug)"
               else "");
            ignore (env : Svm.Env.t))
  in
  Cmd.v
    (Cmd.info "sdl"
       ~doc:
         "Scenario-DSL tooling: check FILE (parse + validate, spanned \
          errors, exit 2 on rejection), compile FILE (also build the \
          environment and programs), fmt FILE (canonical form to stdout)")
    Term.(const run $ action $ file $ nprocs)

(* ---- work (internal) / serve ---- *)

let work_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "The job queue to pull shards from: an `asmsim serve --listen' \
             daemon at HOST:PORT, or the private queue of a --dist run at \
             the path of its Unix-domain socket (any ADDR containing `/'). Reconnects with \
             jittered exponential backoff when the link drops; exits 0 on \
             a server-initiated shutdown.")
  in
  let chaos_net =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos-net" ] ~docv:"MODE"
          ~doc:
            "Fault-injection harness for --connect: sabotage the write \
             path every few frames. MODE is one of drop, delay, truncate, \
             garbage — results must stay identical to a clean run.")
  in
  let chaos_every =
    Arg.(
      value & opt int 7
      & info [ "chaos-every" ] ~docv:"N"
          ~doc:"Fire the --chaos-net fault on every Nth frame written.")
  in
  let retries =
    Arg.(
      value & opt int 8
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Consecutive failed connection attempts before giving up \
             (--connect).")
  in
  let run addrstr chaos_net chaos_every retries log_level log_json spans =
    let log = make_log ~json:log_json log_level in
    let addr = parse_addr_or_die addrstr in
    let chaos =
      match chaos_net with
      | None -> None
      | Some name -> (
          match Dist.Net.chaos_mode_of_string name with
          | Ok mode -> Some (Dist.Net.chaos ~every:chaos_every mode)
          | Error m ->
              prerr_endline m;
              exit 2)
    in
    (* Every networked worker keeps a registry: its snapshot rides
       each heartbeat pong, which is what feeds `asmsim top'. *)
    let metrics = Svm.Metrics.create () in
    let cfg =
      {
        (client_config ~metrics ~log
           ?spans:(make_spans ~role:"worker" spans)
           ())
        with
        Dist.Client.chaos;
        max_failures = retries;
      }
    in
    exit
      (Dist.Client.worker_loop cfg
         ~lookup:Experiments.Harness.dist_instance addr)
  in
  Cmd.v
    (Cmd.info "work"
       ~doc:
         "Worker process: pull shards from a job queue — a serve daemon \
          over TCP, or the private queue a --dist run spawns its workers \
          against — and stream the results back.")
    Term.(
      const run $ connect $ chaos_net $ chaos_every $ retries $ log_level_arg
      $ log_json_arg $ spans_arg)

let serve_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List journalled job ids and exit.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"JOB" ~doc:"Journalled job id to resume.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"W"
          ~doc:"Worker processes of the private fleet that runs --resume.")
  in
  let out =
    Arg.(
      value & opt string "failure.replay"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the replay artifact of a found violation.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Run as a long-lived TCP verification service: accept job \
             submissions from `sweep/explore --connect' clients and deal \
             their shards to `work --connect' workers. Bind PORT 0 to let \
             the kernel pick (the bound port is printed to stderr). \
             SIGTERM drains gracefully: stop accepting, checkpoint \
             in-flight work, exit 0.")
  in
  let fsync =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync job journals on every checkpoint (--listen): shards \
             survive a machine crash, not just a process crash.")
  in
  let heartbeat =
    Arg.(
      value & opt float 20.
      & info [ "heartbeat-timeout" ] ~docv:"SEC"
          ~doc:
            "Declare a silent network peer dead after SEC seconds \
             (--listen); a ping is sent at SEC/2.")
  in
  let max_retries =
    Arg.(
      value & opt int 10
      & info [ "max-retries" ] ~docv:"K"
          ~doc:
            "Re-deal a lost shard at most K times before declaring it \
             hostile and failing the job (--listen).")
  in
  let rate_limit =
    Arg.(
      value & opt int (64 * 1024 * 1024)
      & info [ "rate-limit" ] ~docv:"BYTES"
          ~doc:
            "Cut a peer that sends more than BYTES per second (--listen); \
             a slow-loris defense on top of the frame-size cap and the \
             incomplete-frame deadline.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON snapshot of the service's counters (connections, \
             handshake rejects, shard retries, queue depth) to FILE after \
             the drain (--listen).")
  in
  let run list_flag resume workers shard_timeout journal_dir out listen fsync
      heartbeat max_retries rate_limit metrics_out shard_size log_level
      log_json spans =
    if list_flag then
      List.iter print_endline (Dist.Journal.list_ids ~dir:journal_dir ())
    else
      let log = make_log ~json:log_json log_level in
      match listen with
      | Some addrstr -> (
          let addr = parse_addr_or_die addrstr in
          let metrics = Svm.Metrics.create ~wall_clock:false () in
          let net_log = Svm.Log.sub log "net" in
          let cfg =
            {
              (Dist.Queue.default_config
                 ~fingerprint:(Experiments.Harness.registry_fingerprint ())
                 ())
              with
              Dist.Queue.shard_size;
              shard_timeout;
              heartbeat_timeout = heartbeat;
              max_retries;
              rate_limit;
              journal_dir;
              fsync;
              log = net_log;
              metrics = Some metrics;
              spans = make_spans ~role:"serve" spans;
            }
          in
          match
            Dist.Queue.serve
              ~on_listen:(fun port ->
                Svm.Log.infof net_log "listening on port %d" port)
              cfg ~lookup:Experiments.Harness.dist_instance addr
          with
          | Ok () -> (
              Svm.Log.infof net_log "drained; journals are resumable";
              match metrics_out with
              | None -> ()
              | Some file ->
                  let oc = open_out file in
                  output_string oc
                    (Svm.Metrics.snapshot_string ~pretty:true metrics);
                  output_char oc '\n';
                  close_out oc)
          | Error m ->
              Format.eprintf "serve: %s@." m;
              exit 3)
      | None -> (
          match resume with
          | None ->
              Format.eprintf "serve: pass --listen ADDR, --resume JOB or \
                              --list@.";
              exit 2
          | Some id -> (
              match Dist.Journal.load ~dir:journal_dir id with
              | Error m ->
                  prerr_endline m;
                  exit 2
              | Ok l -> (
                  (* The job itself comes from the journal — serve needs no
                     re-statement of the sweep/explore parameters. *)
                  match
                    run_remote ~cmd:"serve" ~log ~spans ~dist:(max 1 workers)
                      ~connect:None ~resume:(Some id) ~shard_timeout
                      ~shard_size:None ~chaos:None ~journal_dir
                      l.Dist.Journal.l_job
                  with
                  | Some (Dist.Client.Sweep_outcome o) ->
                      if print_sweep_outcome ~out o then exit 1
                  | Some (Dist.Client.Explore_outcome r) ->
                      if print_explore_result r then exit 1
                  | None -> ())))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the network verification service (--listen), or manage \
          journalled distributed jobs: list them, or resume one (finished \
          shards are restored from the journal, only the rest re-run)")
    Term.(
      const run $ list_flag $ resume $ workers $ shard_timeout_arg
      $ journal_dir_arg $ out $ listen $ fsync $ heartbeat $ max_retries
      $ rate_limit $ metrics_out $ shard_size_arg $ log_level_arg
      $ log_json_arg $ spans_arg)

(* ---- top ---- *)

let top_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"The `asmsim serve --listen' daemon to watch.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print one snapshot and exit (for scripts and CI) instead of \
             refreshing.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the raw stats document (health + merged metrics) as one \
             compact JSON line; implies --once.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SEC"
          ~doc:"Seconds between refreshes (without --once).")
  in
  let run connect once json interval log_level log_json =
    let log = make_log ~json:log_json log_level in
    let addr = parse_addr_or_die connect in
    let cfg = client_config ~log () in
    let j = Svm.Json.member in
    let ji doc k =
      Option.value ~default:0 (Option.bind (j k doc) Svm.Json.to_int)
    in
    let js doc k =
      Option.value ~default:"?" (Option.bind (j k doc) Svm.Json.to_str)
    in
    let jb doc k =
      match j k doc with Some (Svm.Json.Bool b) -> b | _ -> false
    in
    let render doc =
      let b = Buffer.create 1024 in
      let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      let health = Option.value ~default:Svm.Json.Null (j "health" doc) in
      pf "asmsim top — %s — uptime %ds%s\n" connect (ji health "uptime_s")
        (if jb health "draining" then " — DRAINING" else "");
      pf "peers: %d (%d worker(s), %d client(s), %d pending)\n"
        (ji health "peers") (ji health "workers") (ji health "clients")
        (ji health "pending");
      pf "queue: depth %d, %d in flight, %d active job(s)\n"
        (ji health "queue_depth") (ji health "in_flight")
        (ji health "jobs_active");
      let jobs =
        Option.value ~default:[]
          (Option.bind (j "jobs" health) Svm.Json.to_list)
      in
      if jobs <> [] then begin
        pf "jobs:\n";
        List.iter
          (fun jd ->
            pf "  %-24s %-20s %4d/%-4d shard(s) done, %d running, %d \
                retry(ies), %d watcher(s)\n"
              (js jd "jid") (js jd "scenario") (ji jd "done") (ji jd "shards")
              (ji jd "running") (ji jd "retries") (ji jd "watchers"))
          jobs
      end;
      let peers =
        Option.value ~default:[]
          (Option.bind (j "peer_detail" health) Svm.Json.to_list)
      in
      if peers <> [] then begin
        pf "peers:\n";
        List.iter
          (fun pd ->
            pf "  %-24s %-7s %-5s %8d B in, %5d frames in, %5d out\n"
              (js pd "name") (js pd "role")
              (if
                 match j "busy" pd with
                 | Some (Svm.Json.Bool true) -> true
                 | _ -> false
               then "busy"
               else "idle")
              (ji pd "bytes_in") (ji pd "frames_in") (ji pd "frames_out"))
          peers
      end;
      (* The hottest scenarios and the retry ladder come from the merged
         fleet registry (server counters + every worker push). *)
      (match Option.bind (j "metrics" doc) (j "counters") with
      | Some (Svm.Json.Obj counters) ->
          let prefix = "net_shards_by_scenario." in
          let hot =
            List.filter_map
              (fun (k, v) ->
                if String.starts_with ~prefix k then
                  Option.map
                    (fun n ->
                      ( String.sub k (String.length prefix)
                          (String.length k - String.length prefix),
                        n ))
                    (Svm.Json.to_int v)
                else None)
              counters
            |> List.sort (fun (_, a) (_, b) -> compare b a)
          in
          if hot <> [] then begin
            pf "hot scenarios:\n";
            List.iteri
              (fun i (name, n) ->
                if i < 5 then pf "  %-28s %6d shard(s)\n" name n)
              hot
          end;
          let c k =
            match List.assoc_opt k counters with
            | Some (Svm.Json.Int n) -> n
            | _ -> 0
          in
          pf "fleet: %d shard(s) executed, %d cell(s), %d push(es), %d \
              cache hit(s), %d retry frame(s)\n"
            (c "net_shards_executed_total")
            (c "worker_cells_total")
            (c "net_metrics_pushes_total")
            (c "net_cache_hits_total")
            (c "net_shard_retries_total")
      | _ -> ());
      Buffer.contents b
    in
    let query () =
      match Dist.Client.stats_query cfg addr with
      | Ok doc -> doc
      | Error m ->
          Format.eprintf "top: %s@." m;
          exit 3
    in
    if json then print_string (Svm.Json.to_string (query ()) ^ "\n")
    else if once then print_string (render (query ()))
    else
      let rec loop () =
        let doc = query () in
        (* ANSI clear + home, like every other top. *)
        print_string "\027[2J\027[H";
        print_string (render doc);
        flush stdout;
        Unix.sleepf interval;
        loop ()
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live status of a running verification service: peers, queue \
          depth, per-job shard progress, hottest scenarios and fleet \
          totals, derived from the server's stats reply (health + merged \
          worker registries). --once prints a single snapshot for \
          scripts; --json emits the raw document.")
    Term.(
      const run $ connect $ once $ json $ interval $ log_level_arg
      $ log_json_arg)

(* ---- soak ---- *)

let soak_cmd =
  let n =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Override the scenario's process count.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base seed: schedule k is derived from (S, k) alone, so any \
             finding is re-derivable long after the run.")
  in
  let schedules =
    Arg.(
      value & opt (some int) None
      & info [ "schedules" ] ~docv:"K"
          ~doc:"Stop after K schedules (this invocation).")
  in
  let until =
    Arg.(
      value & opt (some int) None
      & info [ "until" ] ~docv:"INDEX"
          ~doc:
            "Stop at absolute schedule INDEX — with --resume, a run killed \
             partway and resumed to the same INDEX yields a corpus \
             content-identical to an uninterrupted one.")
  in
  let duration =
    Arg.(
      value & opt (some float) None
      & info [ "duration" ] ~docv:"SEC" ~doc:"Stop after SEC wall seconds.")
  in
  let batch =
    Arg.(
      value & opt int 256
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Schedules per batch; the corpus cements and checkpoints once \
             per batch, so a crash loses at most one batch of work.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Fan each batch out over J domains (capped at the core count); \
             results are index-deterministic at any job count.")
  in
  let tiers =
    Arg.(
      value & opt string "crash"
      & info [ "tiers" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated fault tiers to sample: any of crash, omission, \
             recovery, byzantine.")
  in
  let max_faults =
    Arg.(
      value & opt int 2
      & info [ "max-faults" ] ~docv:"T"
          ~doc:"Faults per schedule are drawn from 0..T.")
  in
  let within =
    Arg.(
      value & opt int 30
      & info [ "within" ] ~docv:"W"
          ~doc:"Local-step window fault points are drawn from.")
  in
  let budget =
    Arg.(
      value & opt int 20_000
      & info [ "budget" ] ~docv:"B" ~doc:"Per-schedule step budget.")
  in
  let corpus_dir =
    Arg.(
      value & opt string ".asmsim-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory findings and checkpoints are cemented into \
             (created if needed).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the corpus's last checkpoint for this scenario \
             and seed instead of starting at schedule 0; known findings are \
             deduplicated, not re-reported.")
  in
  let chaos_store =
    Arg.(
      value & opt (some string) None
      & info [ "chaos-store" ] ~docv:"MODE"
          ~doc:
            "Fault-injection hook for the corpus itself: kill (SIGKILL after \
             an append), torn (flush half a record, then SIGKILL), or \
             bitflip (corrupt one cemented byte). The store must lose at \
             most the uncemented tail, and must quarantine — never trust — \
             corrupt records.")
  in
  let chaos_at =
    Arg.(
      value & opt int 3
      & info [ "chaos-at" ] ~docv:"A"
          ~doc:"Which corpus append the kill/torn chaos strikes.")
  in
  let no_gc_tune =
    Arg.(
      value & flag
      & info [ "no-gc-tune" ]
          ~doc:"Do not widen the minor heap for the hot loop.")
  in
  let max_heap_growth =
    Arg.(
      value & opt (some int) None
      & info [ "max-heap-growth" ] ~docv:"WORDS"
          ~doc:
            "Fail (exit 1) if the major heap grows by more than WORDS words \
             after the first batch — the unbounded-memory gate for long \
             soaks.")
  in
  let run name scenario_file scenario_dir nprocs seed schedules until duration
      batch jobs tiers max_faults within budget corpus_dir resume chaos_store
      chaos_at no_gc_tune max_heap_growth log_level log_json =
    let name = resolve_scenario ~cmd:"soak" name scenario_file scenario_dir in
    let log = make_log ~json:log_json log_level in
    let kinds =
      String.split_on_char ',' tiers
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match Svm.Adversary.fault_kind_of_name s with
             | Some k -> k
             | None ->
                 Format.eprintf
                   "unknown fault tier %S (known: crash, omission, recovery, \
                    byzantine)@."
                   s;
                 exit 2)
    in
    let chaos =
      match chaos_store with
      | None -> None
      | Some m -> (
          match Experiments.Soak.chaos_of_name m with
          | Some c -> Some c
          | None ->
              Format.eprintf
                "unknown --chaos-store mode %S (known: kill, torn, bitflip)@."
                m;
              exit 2)
    in
    match Experiments.Scenario.find ?nprocs name with
    | Error m ->
        prerr_endline m;
        exit 2
    | Ok s -> (
        let soak_log = Svm.Log.sub log "soak" in
        let cfg =
          {
            Experiments.Soak.default_config with
            Experiments.Soak.seed;
            schedules;
            until;
            duration;
            batch;
            jobs;
            kinds;
            max_faults;
            within;
            budget;
            resume;
            chaos;
            chaos_at;
            gc_tune = not no_gc_tune;
            log = soak_log;
          }
        in
        Format.printf
          "soaking %s (n=%d, x=%d): seed %d, up to %d fault(s) of {%s} \
           within %d step(s), batch %d@."
          s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
          s.Experiments.Scenario.x seed max_faults
          (String.concat ","
             (List.map Svm.Adversary.fault_kind_name kinds))
          within batch;
        match Experiments.Soak.run cfg ~corpus_dir s with
        | Error m ->
            Format.eprintf "soak failed: %s@." m;
            exit 3
        | Ok o ->
            Format.printf
              "soaked schedules [%d, %d): %d run(s) in %d batch(es), %d \
               clean, %d deadlocked@."
              o.Experiments.Soak.o_first_index o.Experiments.Soak.o_next_index
              o.Experiments.Soak.o_executed o.Experiments.Soak.o_batches
              o.Experiments.Soak.o_clean o.Experiments.Soak.o_deadlocks;
            List.iter
              (fun d -> Format.printf "new finding %s@." d)
              o.Experiments.Soak.o_new_findings;
            Format.printf
              "findings: %d new, %d duplicate; corpus holds %d record(s)@."
              (List.length o.Experiments.Soak.o_new_findings)
              o.Experiments.Soak.o_dup_findings
              o.Experiments.Soak.o_corpus_records;
            (match o.Experiments.Soak.o_stop with
            | `Schedules -> ()
            | `Duration -> Svm.Log.infof soak_log "duration reached"
            | `Sigterm ->
                Svm.Log.infof soak_log
                  "SIGTERM: drained, cemented and checkpointed; --resume \
                   continues at schedule %d"
                  o.Experiments.Soak.o_next_index);
            (* The unbounded-memory gate: batch-independent work must not
               accumulate across batches. *)
            (match max_heap_growth with
            | Some cap
              when o.Experiments.Soak.o_heap_growth_words > cap ->
                Format.printf
                  "heap growth after first batch: %d words (cap %d) — FAIL@."
                  o.Experiments.Soak.o_heap_growth_words cap;
                exit 1
            | Some cap ->
                Format.printf
                  "heap growth after first batch: %d words (cap %d)@."
                  o.Experiments.Soak.o_heap_growth_words cap
            | None -> ());
            exit 0)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Continuously soak a scenario with seeded random schedules and \
          fault plans, cementing shrunk findings into a crash-safe \
          content-addressed corpus; SIGTERM drains cleanly and --resume \
          picks up at the next unexecuted schedule")
    Term.(
      const run $ scenario_arg $ scenario_file_arg $ scenario_dir_arg $ n
      $ seed $ schedules $ until $ duration $ batch $ jobs $ tiers
      $ max_faults $ within $ budget $ corpus_dir $ resume $ chaos_store
      $ chaos_at $ no_gc_tune $ max_heap_growth $ log_level_arg $ log_json_arg)

(* ---- corpus ---- *)

let corpus_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"The corpus directory.")
  in
  let list =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "Print one `<digest> <kind>' line per valid record, sorted by \
             digest — stable under resume/batch reordering, so two corpora \
             with the same content diff clean.")
  in
  let kind =
    Arg.(
      value & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Restrict --list to finding, metrics or state records.")
  in
  let cat =
    Arg.(
      value
      & opt (some string) None
      & info [ "cat" ] ~docv:"DIGEST"
          ~doc:
            "Write the payload of the record at this content address to \
             stdout — a finding's payload is a replay artifact, directly \
             consumable by `asmsim replay'.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-verify every record's content address; print a typed report \
             per quarantined record and exit 1 if there are any.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Cement the tail and merge all segments into one, \
             byte-identity-checked against the input before the old \
             segments are dropped. Refuses while any record is quarantined.")
  in
  let run dir list kind cat check compact =
    let kind_filter =
      match kind with
      | None -> None
      | Some k -> (
          match Corpus.Record.kind_of_name k with
          | Some _ as f -> f
          | None ->
              Format.eprintf
                "unknown record kind %S (known: finding, metrics, state)@." k;
              exit 2)
    in
    match Corpus.Store.open_ dir with
    | Error m ->
        Format.eprintf "corpus: %s@." m;
        exit 2
    | Ok store ->
        Fun.protect
          ~finally:(fun () -> Corpus.Store.close store)
          (fun () ->
            if compact then (
              match Corpus.Store.compact store with
              | Ok n ->
                  Format.eprintf "[corpus] compacted %d record(s) into one \
                                  segment@." n
              | Error m ->
                  Format.eprintf "corpus: compaction refused: %s@." m;
                  exit 1);
            (match cat with
            | None -> ()
            | Some d -> (
                match Corpus.Store.find store d with
                | Some r -> print_string r.Corpus.Record.payload
                | None ->
                    Format.eprintf
                      "corpus: no valid record at %s (absent, or quarantined \
                       by this read)@."
                      d;
                    exit 1));
            if list then begin
              let rows =
                Corpus.Store.fold store ~init:[] ~f:(fun acc ~digest r ->
                    match kind_filter with
                    | Some k when r.Corpus.Record.kind <> k -> acc
                    | _ ->
                        (digest, Corpus.Record.kind_name r.Corpus.Record.kind)
                        :: acc)
              in
              List.sort compare rows
              |> List.iter (fun (d, k) -> Format.printf "%s %s@." d k)
            end;
            (* Opening (and any listing) already re-verified everything;
               the quarantine list is the verdict. *)
            let quarantined = Corpus.Store.quarantined store in
            if check then begin
              List.iter
                (fun q ->
                  Format.printf "quarantined: %a@." Corpus.Store.pp_quarantine
                    q)
                quarantined;
              Format.printf "%d record(s) valid, %d quarantined@."
                (Corpus.Store.count store)
                (List.length quarantined)
            end
            else if (not list) && cat = None then
              Format.printf
                "%d record(s): %d cemented segment(s), %d in the tail, %d \
                 quarantined@."
                (Corpus.Store.count store)
                (Corpus.Store.segments store)
                (Corpus.Store.tail_count store)
                (List.length quarantined);
            if quarantined <> [] && check then exit 1)
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Inspect a soak corpus: list content addresses, re-verify every \
          record (--check), or compact the cemented segments")
    Term.(const run $ dir $ list $ kind $ cat $ check $ compact)

let () =
  let doc = "Reproduction of 'The Multiplicative Power of Consensus Numbers'" in
  let group =
    Cmd.group (Cmd.info "asmsim" ~doc)
      [
        classes_cmd;
        canonical_cmd;
        run_task_cmd;
        simulate_cmd;
        chain_cmd;
        overhead_cmd;
        experiment_cmd;
        sweep_cmd;
        explore_cmd;
        replay_cmd;
        trace_cmd;
        trace_check_cmd;
        trace_merge_cmd;
        stats_cmd;
        scenarios_cmd;
        sdl_cmd;
        serve_cmd;
        work_cmd;
        top_cmd;
        soak_cmd;
        corpus_cmd;
      ]
  in
  (* One exit-code convention for every subcommand: 0 clean, 1 finding
     (the bodies call [exit 1] themselves), 2 usage/parse errors — both
     cmdliner's own and the bodies' [exit 2] — and 3 for anything that
     escapes as an exception. *)
  match Cmd.eval_value ~catch:false group with
  | Ok _ -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 3
  | exception e ->
      Format.eprintf "asmsim: internal error: %s@." (Printexc.to_string e);
      exit 3
