(* asmsim — command-line interface to the reproduction. `asmsim --help'
   lists the subcommands; each option is declared once below and shared
   by every subcommand it applies to.

   Exit codes, uniform across every subcommand:
     0  clean — the command ran and found nothing adverse (under
        --expect-violation: the expected finding was found)
     1  finding — a violation, counterexample, failed experiment check,
        or reproduced replay violation (inverted by --expect-violation)
     2  usage or input error — unknown subcommand, flag, scenario, task
        or experiment id; a flag that cannot take effect in the chosen
        mode; unreadable artifact or journal
     3  internal error — unexpected exception, replay divergence from
        the recorded violation, broken worker protocol, hostile shard,
        or any distributed-run failure *)

open Cmdliner

let ( let* ) = Result.bind

(* An input error the body detects itself: report it, exit 2. *)
let or_exit2 = function
  | Ok v -> v
  | Error m ->
      prerr_endline m;
      exit 2

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error m -> Error m

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Member [k] of a JSON object as an int, 0 when absent. *)
let json_int doc k =
  Option.value ~default:0 (Option.bind (Svm.Json.member k doc) Svm.Json.to_int)

(* The first of [flags] that was given, as a usage error: it [why]. *)
let refuse why flags =
  match List.find_opt snd flags with
  | None -> Ok ()
  | Some (flag, _) -> Error (Printf.sprintf "%s %s" flag why)

(* ---- converters ---- *)

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

let count_conv =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (Printf.sprintf "%S is not a non-negative integer" s)),
      Format.pp_print_int )

let enum_of name values = Arg.enum (List.map (fun v -> (name v, v)) values)

(* HOST:PORT, or a Unix-domain socket path; the text is kept for display. *)
let addr_conv =
  Arg.conv'
    ( (fun s -> Result.map (fun a -> (s, a)) (Dist.Net.parse_addr s)),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

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

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Seed: of the adversary (run-task, simulate, chain), or soak's \
           base seed — schedule k is derived from (SEED, k) alone, so any \
           finding is re-derivable long after the run.")

let crashes_arg =
  Arg.(
    value & opt int 0
    & info [ "crashes" ] ~docv:"C"
        ~doc:"Crash budget: the most crashes a run injects.")

let target_arg =
  Arg.(
    required
    & opt (some model_conv) None
    & info [ "target" ] ~docv:"MODEL"
        ~doc:"Target model n,t,x (for chain, an equivalent one).")

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

(* --task, -n and -t, resolved to the task and its read/write algorithm
   (the source algorithm of simulate and chain). *)
let task_t ~n =
  let task =
    Arg.(
      value & opt string "kset:3"
      & info [ "task" ] ~docv:"TASK"
          ~doc:"Task: kset:K, consensus, renaming, trivial, approx.")
  in
  let n =
    Arg.(
      value & opt int n
      & info [ "n" ] ~doc:"Processes of the task's (source) algorithm.")
  in
  let t =
    Arg.(
      value & opt int 2
      & info [ "t" ] ~doc:"Crash bound of the task's (source) algorithm.")
  in
  Term.(term_result' (const (fun n t s -> parse_task ~n ~t s) $ n $ t $ task))

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
  let run (task, alg) seed crashes =
    let r =
      Experiments.Runner.one_run ~task ~alg ~seed ~max_crashes:crashes ()
    in
    Format.printf "algorithm: %s in %s@." alg.Core.Algorithm.name
      (Core.Model.to_string alg.Core.Algorithm.model);
    print_run task r
  in
  Cmd.v
    (Cmd.info "run-task" ~doc:"Run a task algorithm natively")
    Term.(const run $ task_t ~n:5 $ seed_arg $ crashes_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let colored =
    Arg.(value & flag & info [ "colored" ] ~doc:"Use the colored simulation.")
  in
  let run (task, source) seed crashes target colored =
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
      const run $ task_t ~n:5 $ seed_arg $ crashes_arg $ target_arg $ colored)

(* ---- chain ---- *)

let chain_cmd =
  let run (task, source) seed target =
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
    Term.(const run $ task_t ~n:4 $ seed_arg $ target_arg)

(* ---- overhead ---- *)

let overhead_cmd =
  let run () = print_string (Experiments.Exp_scale.overhead_table ()) in
  Cmd.v
    (Cmd.info "overhead" ~doc:"Print the simulation step-cost table")
    Term.(const run $ const ())

(* ---- experiment ---- *)

let experiment_cmd =
  let ids =
    let ids = Experiments.Registry.ids () in
    Arg.(
      value
      & pos 0 (enum (("all", ids) :: List.map (fun id -> (id, [ id ])) ids)) ids
      & info [] ~docv:"ID" ~doc:"Experiment id, or 'all'.")
  in
  let markdown =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Emit markdown.")
  in
  let run ids markdown =
    let reports =
      List.filter_map
        (fun (id, _, run) -> if List.mem id ids then Some (run ()) else None)
        Experiments.Registry.all
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
    Term.(const run $ ids $ markdown)

(* ---- scenarios: --algo, -n and the DSL sources ---- *)

let algo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "algo" ] ~docv:"SCENARIO"
        ~doc:
          (Printf.sprintf
             "Scenario to run: %s, or any name registered via \
              --scenario-file/--scenario-dir (stats runs it fresh instead \
              of replaying an artifact)."
             (String.concat ", " (Experiments.Scenario.names ()))))

let nprocs_arg =
  Arg.(
    value & opt (some int) None
    & info [ "n" ] ~docv:"N" ~doc:"Override the scenario's process count.")

let register_sdl_file path =
  let* src = read_file path in
  match Experiments.Scenario.register_source ~path src with
  | Ok s -> Ok s.Experiments.Scenario.name
  | Error m -> Error (path ^ ":" ^ m)

let register_sdl_dir dir =
  let* entries = try Ok (Sys.readdir dir) with Sys_error m -> Error m in
  match
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".sdl")
    |> List.sort compare
  with
  | [] -> Error (Printf.sprintf "no .sdl files in %s" dir)
  | sdl ->
      List.fold_left
        (fun acc f ->
          let* () = acc in
          Result.map ignore (register_sdl_file (Filename.concat dir f)))
        (Ok ()) sdl

(* Register every DSL source given; the value is the name of the
   --scenario-file's own scenario. *)
let sdl_t =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario-file" ] ~docv:"FILE.sdl"
          ~doc:
            "Load, validate and register the DSL scenario in FILE; when \
             --algo is not given, FILE's scenario is the one run.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario-dir" ] ~docv:"DIR"
          ~doc:
            "Register every *.sdl file in DIR (non-recursive); pick one by \
             name with --algo.")
  in
  let register dir file =
    let* () = Option.fold ~none:(Ok ()) ~some:register_sdl_dir dir in
    Option.fold ~none:(Ok None)
      ~some:(fun f -> Result.map Option.some (register_sdl_file f))
      file
  in
  Term.(term_result' (const register $ dir $ file))

(* The scenario to run, if any: an explicit --algo wins, else the
   --scenario-file's own; resized by [nprocs]. *)
let scenario_opt_t nprocs =
  let find algo sdl nprocs =
    match (algo, sdl) with
    | None, None -> Ok None
    | Some name, _ | None, Some name ->
        Result.map Option.some (Experiments.Scenario.find ?nprocs name)
  in
  Term.(term_result' (const find $ algo_arg $ sdl_t $ nprocs))

let scenario_t =
  let require = function
    | Some s -> Ok s
    | None ->
        Error "no scenario given: pass --algo NAME or --scenario-file FILE.sdl"
  in
  Term.(term_result' (const require $ scenario_opt_t nprocs_arg))

(* ---- options shared by the running subcommands ---- *)

let jobs_arg =
  Arg.(
    value
    & opt (some count_conv) None
    & info [ "jobs" ] ~docv:"J" ~absent:"1"
        ~doc:
          "Fan the work out over J domains; 0 means one per core, and J is \
           capped at the core count. Results are identical at any job \
           count. In-process runs only.")

let jobs_t =
  let resolve j =
    let cores = Domain.recommended_domain_count () in
    match j with None -> 1 | Some 0 -> cores | Some j -> min j cores
  in
  Term.(const resolve $ jobs_arg)

let budget_arg default =
  Arg.(
    value & opt int default
    & info [ "budget" ] ~docv:"B" ~doc:"Step budget of each run or re-run.")

let runs_arg default =
  Arg.(
    value & opt int default
    & info [ "runs" ] ~docv:"R" ~doc:"Maximum runs before giving up.")

let tiers_arg =
  let kind =
    Arg.conv'
      ( (fun s ->
          Option.to_result
            ~none:
              (Printf.sprintf
                 "unknown fault tier %S (known: crash, omission, recovery, \
                  byzantine)"
                 s)
            (Svm.Adversary.fault_kind_of_name (String.trim s))),
        Svm.Adversary.pp_fault_kind )
  in
  Arg.(
    value
    & opt (list kind) [ Svm.Adversary.Crash_stop ]
    & info [ "tiers" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated fault tiers: any of crash, omission, recovery, \
           byzantine.")

let expect_violation_arg =
  Arg.(
    value & flag
    & info [ "expect-violation" ]
        ~doc:
          "Invert the exit status: succeed (0) iff a violation or \
           counterexample was found — for regression-gating known \
           degradations, e.g. a healthy object under the byzantine tier.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSON snapshot of the deterministic counters to FILE: the \
           explorer's runs, pruning tallies and visited hits/misses \
           (byte-identical at any --jobs value; in-process runs only), or \
           the service's connections, handshake rejects, shard retries \
           and queue depth after the drain (serve --listen).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit JSON instead of text: stats as one compact, byte-stable \
           line; the scenarios listing as one document; top's raw stats \
           document (health + merged metrics), implying --once.")

let replay_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~absent:"failure.replay"
        ~doc:
          "Where to write the replay artifact of a found violation (serve: \
           of the job --resume finishes).")

let text_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

(* Write [s] to [out], or to stdout when there is none. *)
let write_out out s =
  match out with
  | None -> print_string s
  | Some file ->
      write_file file s;
      Format.eprintf "written to %s@." file

let write_snapshot file metrics =
  write_file file (Svm.Metrics.snapshot_string ~pretty:true metrics ^ "\n")

(* ---- leveled logging, shared by every long-running subcommand ----
   All diagnostics go to stderr so stdout stays byte-diffable against
   in-process runs; the default human rendering of Info records is the
   historical "[sub] message" format the smoke checks grep for. *)

let log_t =
  let level =
    Arg.(
      value
      & opt (enum_of Svm.Log.level_name Svm.Log.[ Debug; Info; Warn; Error ])
          Svm.Log.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Diagnostic verbosity on stderr: one of debug, info, warn, \
             error. Levels below LEVEL are dropped at the source.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "log-json" ]
          ~doc:
            "Emit diagnostics as JSON lines (seq/level/sub/msg, no \
             timestamps) instead of human-readable text.")
  in
  let make level json =
    let write s =
      prerr_string s;
      prerr_newline ()
    in
    Svm.Log.make ~level
      (if json then Svm.Log.json_sink write else Svm.Log.human_sink write)
  in
  Term.(const make $ level $ json)

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

(* ---- off-process execution: a private --dist fleet or a serve daemon
   at --connect; all chatter goes to stderr so stdout stays
   byte-diffable against in-process runs ---- *)

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"JOB"
        ~doc:
          "Resume the journalled job JOB, re-running only its unfinished \
           shards: with --dist on a private fleet, with --connect on the \
           server that suspended it (the other parameters must describe \
           the same job); serve --resume takes the job from the journal \
           and runs it on --workers processes.")

let shard_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "shard-timeout" ] ~docv:"SEC" ~absent:"120."
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

let journal_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-dir" ] ~docv:"DIR" ~absent:Dist.Journal.default_dir
        ~doc:"Where distributed jobs journal their completed shards.")

let connect_required_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "The job queue to talk to: an `asmsim serve --listen' daemon at \
           HOST:PORT, or (work) the private queue of a --dist run at the \
           path of its Unix-domain socket (any ADDR containing `/'). work \
           reconnects with jittered exponential backoff when the link \
           drops and exits 0 on a server-initiated shutdown; top watches \
           the daemon.")

type remote =
  | In_process
  | Fleet of {
      workers : int;
      resume : string option;
      shard_size : int option;
      shard_timeout : float;
      chaos : int option;
      journal_dir : string;
    }
  | Server of {
      addr : Unix.sockaddr;
      resume : string option;
      spans : string option;
    }

(* Where sweep and explore run their job. [local] names the given
   options only an in-process run honours; each flag that cannot take
   effect in the chosen mode is a usage error. *)
let remote_t ~local =
  let dist =
    Arg.(
      value & opt count_conv 0
      & info [ "dist" ] ~docv:"W"
          ~doc:
            "Shard the work across W worker OS processes (0 = in-process): \
             a private job queue on a Unix-domain socket only this user \
             can reach, served by W `asmsim work --connect' children. \
             Output is bit-for-bit identical to the in-process run. \
             Completed shards are journalled under --journal-dir, so a run \
             stopped by SIGTERM suspends and can be picked up with \
             --resume.")
  in
  let connect =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Submit the job to a running `asmsim serve --listen' daemon \
             instead of executing locally. Shard payloads stream back and \
             merge locally, so output is bit-for-bit identical to the \
             in-process run. With --resume JOB, continue a job the server \
             suspended while draining.")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-kill-shard" ] ~docv:"K"
          ~doc:
            "Fault-injection hook for --dist: cut the link of the worker \
             dealt shard K, once, right after dealing it — the shard is \
             re-dealt, the worker reconnects, and the output must stay \
             identical.")
  in
  let make local dist connect resume shard_size shard_timeout chaos
      journal_dir spans =
    let fleet_only =
      [
        ("--shard-size", shard_size <> None);
        ("--shard-timeout", shard_timeout <> None);
        ("--chaos-kill-shard", chaos <> None);
        ("--journal-dir", journal_dir <> None);
      ]
    in
    let spans_given = [ ("--spans", spans <> None) ] in
    match (dist, connect) with
    | 0, None ->
        let* () =
          refuse "needs --dist or --connect" [ ("--resume", resume <> None) ]
        in
        let* () = refuse "needs --dist" fleet_only in
        let* () = refuse "needs --connect" spans_given in
        Ok In_process
    | 0, Some (_, addr) ->
        let* () = refuse "needs --dist" fleet_only in
        let* () = refuse "cannot be used with --connect" local in
        Ok (Server { addr; resume; spans })
    | workers, None ->
        let* () = refuse "needs --connect" spans_given in
        let* () = refuse "cannot be used with --dist" local in
        Ok
          (Fleet
             {
               workers;
               resume;
               shard_size;
               shard_timeout = Option.value shard_timeout ~default:120.;
               chaos;
               journal_dir =
                 Option.value journal_dir ~default:Dist.Journal.default_dir;
             })
    | _, Some _ -> Error "--dist and --connect are mutually exclusive"
  in
  Term.(
    term_result'
      (const make $ local $ dist $ connect $ resume_arg $ shard_size_arg
     $ shard_timeout_arg $ chaos $ journal_dir_arg $ spans_arg))

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

(* Run [job] off-process as [remote] says; [None] means in-process.
   Stats and suspension notes go to stderr; a suspended job exits 0, a
   failed one 3. *)
let run_remote ~cmd ~log ?on_progress remote job =
  let finish flag print on_suspend r =
    match r with
    | Error m ->
        Format.eprintf "%s --%s failed: %s@." cmd flag m;
        exit 3
    | Ok (sub, st) -> (
        print st;
        match sub with
        | Dist.Client.Suspended id ->
            on_suspend id;
            exit 0
        | Dist.Client.Finished o -> Some o)
  in
  match remote with
  | In_process -> None
  | Fleet f ->
      finish "dist"
        (fun (st : Dist.Coordinator.stats) ->
          Format.eprintf
            "[dist] job %s: %d shard(s) of %d cell(s); %d resumed, %d \
             executed; %d worker(s) spawned, %d reassignment(s)@."
            st.job_id st.shards st.shard_size st.resumed st.executed
            st.spawned st.reassigned)
        (fun id ->
          Format.eprintf "[dist] job %s suspended; pick it up with --resume %s@."
            id id)
        (Experiments.Harness.run_job_dist ?on_progress
           {
             (Dist.Coordinator.default_config ~workers:f.workers ()) with
             Dist.Coordinator.shard_timeout = f.shard_timeout;
             shard_size = f.shard_size;
             chaos_kill_shard = Option.map (fun k -> (k, 1)) f.chaos;
             journal_dir = Some f.journal_dir;
             resume = f.resume;
             log = Svm.Log.sub log "dist";
           }
           job)
  | Server s ->
      finish "connect"
        (fun (st : Dist.Client.stats) ->
          Format.eprintf
            "[net] job %s: %d shard(s) of %d cell(s); %d resumed, %d \
             executed; %d reconnect(s)@."
            st.job_id st.shards st.shard_size st.resumed st.executed
            st.reconnects)
        (fun id ->
          Format.eprintf
            "[net] job %s suspended (server draining); resubmit with \
             --connect ... --resume %s@."
            id id)
        (Experiments.Harness.submit_job_net ?resume:s.resume
           (client_config ~log ?spans:(make_spans ~role:"client" s.spans) ())
           job s.addr)

(* ---- outcome printers, shared by the in-process and off-process paths
   and by serve; each returns whether a finding was printed ---- *)

let pp_violation_line (v : Svm.Monitor.violation) =
  Format.printf "violation: %s: %s (step %d, p%d)@." v.Svm.Monitor.monitor
    v.Svm.Monitor.message v.Svm.Monitor.step v.Svm.Monitor.pid

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
      write_file out f.Svm.Explore.replay;
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

(* Print a job's outcome; exit 1 on a finding unless it was expected. *)
let print_outcome ?(expect_violation = false) ?(out = "failure.replay") =
  function
  | Dist.Client.Sweep_outcome o ->
      if print_sweep_outcome ~out o <> expect_violation then exit 1
  | Dist.Client.Explore_outcome r ->
      if print_explore_result r <> expect_violation then exit 1

(* ---- sweep ---- *)

let sweep_cmd =
  let t =
    Arg.(
      value & opt int 1
      & info [ "t" ] ~docv:"T" ~doc:"Sweep fault schedules of up to T crashes.")
  in
  let window =
    Arg.(
      value & opt int 6
      & info [ "window" ] ~docv:"W"
          ~doc:"Crash-point op-index window per victim.")
  in
  let run s t window runs budget out kinds expect_violation jobs remote log =
    Format.printf
      "sweeping %s (n=%d, x=%d): up to %d fault(s) of {%s}, window %d@."
      s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
      s.Experiments.Scenario.x t
      (String.concat "," (List.map Svm.Adversary.fault_kind_name kinds))
      window;
    (* Heartbeat on stderr so long sweeps are never silent. *)
    let on_progress ~runs =
      if runs mod 1_000 = 0 then Format.eprintf "... %d runs swept@." runs
    in
    let outcome =
      match
        run_remote ~cmd:"sweep" ~log ~on_progress remote
          (Experiments.Harness.sweep_job ~kinds ~max_faults:t
             ~op_window:window ~max_runs:runs ~budget s)
      with
      | Some o -> o
      | None ->
          Dist.Client.Sweep_outcome
            (Experiments.Harness.sweep_scenario ~kinds ~max_faults:t
               ~op_window:window ~max_runs:runs ~budget ~jobs ~on_progress s)
    in
    print_outcome ~expect_violation ?out outcome
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Systematically sweep fault points (crash-stop, omission, \
          crash-recovery, byzantine) under online invariant monitors; on \
          violation, shrink the schedule and write a replay artifact")
    Term.(
      const run $ scenario_t $ t $ window $ runs_arg 5_000 $ budget_arg 20_000
      $ replay_out_arg $ tiers_arg $ expect_violation_arg $ jobs_t
      $ remote_t ~local:(const (fun j -> [ ("--jobs", j <> None) ]) $ jobs_arg)
      $ log_t)

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
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:
            "Disable state-fingerprint deduplication and sleep-set \
             commutation pruning: enumerate every interleaving.")
  in
  let local jobs metrics_out =
    [ ("--jobs", jobs <> None); ("--metrics-out", metrics_out <> None) ]
  in
  let run s steps crashes runs jobs no_dedup expect_violation metrics_out
      remote log =
    let depth =
      Option.value steps ~default:s.Experiments.Scenario.explore_steps
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
      if runs mod 100_000 = 0 then Format.eprintf "... %d runs explored@." runs
    in
    if remote <> In_process && not s.Experiments.Scenario.explorable then begin
      Format.eprintf "scenario %s is not explorable@."
        s.Experiments.Scenario.name;
      exit 2
    end;
    let outcome =
      match
        run_remote ~cmd:"explore" ~log ~on_progress remote
          (Experiments.Harness.explore_job ~max_crashes:crashes
             ~max_runs:runs ~max_steps:depth ~dedup:(not no_dedup) s)
      with
      | Some o -> o
      | None ->
          let snapshot =
            Option.map (fun file -> (file, Svm.Metrics.create ())) metrics_out
          in
          let r =
            or_exit2
              (Experiments.Harness.explore_scenario ~max_crashes:crashes
                 ~max_runs:runs ~max_steps:depth ~jobs
                 ?metrics:(Option.map snd snapshot) ~dedup:(not no_dedup)
                 ~on_progress s)
          in
          Option.iter (fun (file, m) -> write_snapshot file m) snapshot;
          Dist.Client.Explore_outcome r
    in
    print_outcome ~expect_violation outcome
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively enumerate schedules (and crash placements) of a \
          scenario up to a depth bound, with state-fingerprint \
          deduplication, commutation pruning and multicore fan-out — \
          in-process domains (--jobs) or worker processes (--dist)")
    Term.(
      const run $ scenario_t $ steps $ crashes_arg $ runs_arg 2_000_000
      $ jobs_t $ no_dedup $ expect_violation_arg $ metrics_out_arg
      $ remote_t ~local:(const local $ jobs_arg $ metrics_out_arg)
      $ log_t)

(* ---- replay ---- *)

let artifact_arg ~doc = Arg.(pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let required_artifact =
  Arg.required (artifact_arg ~doc:"Replay artifact written by sweep.")

(* Read a replay artifact and resolve its scenario: the scenario, the
   artifact's metadata and its recorded decisions. Exits 2 when the
   file is unreadable or names an unknown scenario. *)
let load_artifact file =
  or_exit2
    (let* contents = read_file file in
     let* meta, decisions =
       Result.map_error
         (Format.asprintf "%s: %a" file Svm.Trace.pp_parse_error)
         (Svm.Trace.parse_replay contents)
     in
     let* s =
       Result.map_error (Printf.sprintf "%s: %s" file)
         (Experiments.Scenario.of_replay_meta meta)
     in
     Ok (s, meta, decisions))

let replay_cmd =
  let run file budget =
    let s, meta, decisions = load_artifact file in
    Format.printf "replaying %s against %s (n=%d): %d decisions@." file
      s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
      (List.length decisions);
    (match List.assoc_opt "schedule" meta with
    | Some sched -> Format.printf "recorded fault: %s@." sched
    | None -> ());
    let recorded =
      match (List.assoc_opt "monitor" meta, List.assoc_opt "step" meta) with
      | Some m, Some st -> Some (m, st)
      | _ -> None
    in
    let result =
      Svm.Explore.replay ~budget ~make:s.Experiments.Scenario.make
        ~monitors:s.Experiments.Scenario.monitors decisions
    in
    (* 0 clean, 1 violation reproduced, 3 diverged from the recorded
       violation (wrong monitor/step, or recorded but absent). Distinct
       from 2 = unreadable artifact above. *)
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
            "replay DIVERGED: violation differs from the recorded one (%s \
             at step %s)@."
            m st;
          exit 3
        end
    | Error v, None ->
        pp_violation_line v;
        exit 1
    | Ok _, Some (m, st) ->
        Format.printf
          "replay DIVERGED: run completed cleanly — recorded violation (%s \
           at step %s) did NOT reproduce@."
          m st;
        exit 3
    | Ok r, None ->
        Format.printf "run completed cleanly in %d steps@." r.Svm.Exec.total_steps
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a recorded fault schedule bit-for-bit from a file")
    Term.(const run $ required_artifact $ budget_arg 20_000)

(* ---- trace / trace-check / stats ---- *)

(* Re-execute a replay artifact under a metrics registry, noting on
   stderr a violation it reproduces: the scenario, the artifact's
   metadata, the recorded trace of the re-run and the registry. *)
let replay_for_trace ~budget file =
  let s, meta, decisions = load_artifact file in
  let metrics = Svm.Metrics.create () in
  let trace =
    match
      Svm.Explore.replay ~budget ~metrics ~make:s.Experiments.Scenario.make
        ~monitors:s.Experiments.Scenario.monitors decisions
    with
    | Ok r -> r.Svm.Exec.trace
    | Error v ->
        Format.eprintf "note: replay violates %s at step %d@."
          v.Svm.Monitor.monitor v.Svm.Monitor.step;
        v.Svm.Monitor.trace
  in
  (s, meta, trace, metrics)

let trace_cmd =
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
    let s, meta, trace, _ = replay_for_trace ~budget file in
    let trace =
      or_exit2
        (Option.to_result ~none:(file ^ ": replay recorded no trace") trace)
    in
    let tl =
      Svm.Timeline.of_trace ~nprocs:s.Experiments.Scenario.nprocs trace
    in
    if tl.Svm.Timeline.dropped > 0 then
      Format.eprintf
        "warning: trace truncated — %d earlier events dropped, timeline \
         covers the kept suffix@."
        tl.Svm.Timeline.dropped;
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
      const run $ required_artifact $ format $ allow_partial $ budget_arg 20_000
      $ text_out_arg)

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
    let json =
      or_exit2
        (Result.bind (read_file file) (fun text ->
             Result.map_error (Printf.sprintf "%s: not JSON: %s" file)
               (Svm.Json.of_string text)))
    in
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
        end
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
          let spans, skipped =
            or_exit2
              (Result.map_error (Printf.sprintf "%s: %s" file)
                 (Dist.Span.load_file file))
          in
          (acc @ spans, sk + skipped))
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
        let i = json_int od in
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
    Term.(const run $ files $ text_out_arg)

let stats_cmd =
  let wall =
    Arg.(
      value & flag
      & info [ "wall-clock" ]
          ~doc:
            "Include the non-deterministic wall-clock section (snapshots are \
             then not replay-comparable).")
  in
  let run file scenario wall json budget out =
    let snapshot_of metrics =
      Svm.Metrics.snapshot_string ~pretty:(not json) metrics ^ "\n"
    in
    match (file, scenario) with
    | Some file, None ->
        let _, _, _, metrics = replay_for_trace ~budget file in
        write_out out (snapshot_of metrics)
    | None, Some s ->
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
        write_out out (snapshot_of metrics)
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
      const run
      $ Arg.value (artifact_arg ~doc:"Replay artifact to re-run under metrics.")
      $ scenario_opt_t (const None)
      $ wall $ json_arg $ budget_arg 50_000 $ text_out_arg)

(* ---- scenarios (registry listing) ---- *)

let scenarios_cmd =
  let run json (_ : string option) =
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
    Term.(const run $ json_arg $ sdl_t)

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
  let run action file nprocs =
    let src = or_exit2 (read_file file) in
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
    | `Compile ->
        let s =
          or_exit2
            (Result.map_error (Printf.sprintf "%s:%s" file)
               (Experiments.Scenario.of_source ?nprocs ~path:file src))
        in
        let env, progs = s.Experiments.Scenario.make () in
        let monitors = s.Experiments.Scenario.monitors () in
        Format.printf
          "compiled %s: nprocs=%d x=%d, %d program(s), %d monitor(s), \
           explore_steps=%d%s@."
          s.Experiments.Scenario.name s.Experiments.Scenario.nprocs
          s.Experiments.Scenario.x (Array.length progs)
          (List.length monitors) s.Experiments.Scenario.explore_steps
          (if s.Experiments.Scenario.seeded_bug then " (seeded bug)" else "");
        ignore (env : Svm.Env.t)
  in
  Cmd.v
    (Cmd.info "sdl"
       ~doc:
         "Scenario-DSL tooling: check FILE (parse + validate, spanned \
          errors, exit 2 on rejection), compile FILE (also build the \
          environment and programs; -n compiles at N processes), fmt FILE \
          (canonical form to stdout)")
    Term.(const run $ action $ file $ nprocs_arg)

(* ---- work / serve ---- *)

let work_cmd =
  let chaos_net =
    Arg.(
      value
      & opt
          (some
             (enum_of Dist.Net.chaos_mode_name
                Dist.Net.[ Drop; Delay; Truncate; Garbage ]))
          None
      & info [ "chaos-net" ] ~docv:"MODE"
          ~doc:
            "Fault-injection harness for --connect: sabotage the write \
             path every few frames. MODE is one of drop, delay, truncate, \
             garbage — results must stay identical to a clean run.")
  in
  let chaos_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-every" ] ~docv:"N" ~absent:"7"
          ~doc:"Fire the --chaos-net fault on every Nth frame written.")
  in
  let chaos mode every =
    match (mode, every) with
    | None, Some _ -> Error "--chaos-every needs --chaos-net"
    | _ ->
        Ok
          (Option.map
             (Dist.Net.chaos ~every:(Option.value every ~default:7))
             mode)
  in
  let retries =
    Arg.(
      value & opt int 8
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Consecutive failed connection attempts before giving up \
             (--connect).")
  in
  let run (_, addr) chaos retries log spans =
    (* Every networked worker keeps a registry: its snapshot rides
       each heartbeat pong, which is what feeds `asmsim top'. *)
    let metrics = Svm.Metrics.create () in
    let cfg =
      {
        (client_config ~metrics ~log
           ?spans:(make_spans ~role:"worker" spans)
           ())
        with
        Dist.Client.chaos = chaos;
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
      const run $ connect_required_arg
      $ term_result' (const chaos $ chaos_net $ chaos_every)
      $ retries $ log_t $ spans_arg)

type serve_mode =
  | List_jobs of string
  | Listen of {
      addr : Unix.sockaddr;
      queue : Dist.Queue.config;
      metrics_out : string option;
    }
  | Resume of { job : Dist.Proto.job; fleet : remote; out : string option }

let serve_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List journalled job ids and exit.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"W" ~absent:"2"
          ~doc:"Worker processes of the private fleet that runs --resume.")
  in
  let listen =
    Arg.(
      value
      & opt (some addr_conv) None
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
      value
      & opt (some float) None
      & info [ "heartbeat-timeout" ] ~docv:"SEC" ~absent:"20."
          ~doc:
            "Declare a silent network peer dead after SEC seconds \
             (--listen); a ping is sent at SEC/2.")
  in
  let max_retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-retries" ] ~docv:"K" ~absent:"10"
          ~doc:
            "Re-deal a lost shard at most K times before declaring it \
             hostile and failing the job (--listen).")
  in
  let rate_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "rate-limit" ] ~docv:"BYTES" ~absent:"67108864"
          ~doc:
            "Cut a peer that sends more than BYTES per second (--listen); \
             a slow-loris defense on top of the frame-size cap and the \
             incomplete-frame deadline.")
  in
  (* Exactly one of --list, --listen and --resume; every other flag must
     take effect in the mode chosen. *)
  let mode list listen resume workers out fsync heartbeat max_retries
      rate_limit metrics_out shard_size shard_timeout journal_dir spans =
    let journal_dir =
      Option.value journal_dir ~default:Dist.Journal.default_dir
    in
    let listen_only =
      [
        ("--fsync", fsync);
        ("--heartbeat-timeout", heartbeat <> None);
        ("--max-retries", max_retries <> None);
        ("--rate-limit", rate_limit <> None);
        ("--metrics-out", metrics_out <> None);
        ("--shard-size", shard_size <> None);
        ("--spans", spans <> None);
      ]
    in
    let resume_only =
      [ ("--workers", workers <> None); ("--out", out <> None) ]
    in
    let shard_timeout' = Option.value shard_timeout ~default:120. in
    match (list, listen, resume) with
    | true, None, None ->
        let* () = refuse "needs --listen" listen_only in
        let* () = refuse "needs --resume" resume_only in
        let* () =
          refuse "needs --listen or --resume"
            [ ("--shard-timeout", shard_timeout <> None) ]
        in
        Ok (List_jobs journal_dir)
    | false, Some (_, addr), None ->
        let* () = refuse "needs --resume" resume_only in
        let queue =
          {
            (Dist.Queue.default_config
               ~fingerprint:(Experiments.Harness.registry_fingerprint ())
               ())
            with
            Dist.Queue.shard_size;
            shard_timeout = shard_timeout';
            heartbeat_timeout = Option.value heartbeat ~default:20.;
            max_retries = Option.value max_retries ~default:10;
            rate_limit = Option.value rate_limit ~default:(64 * 1024 * 1024);
            journal_dir;
            fsync;
            spans = make_spans ~role:"serve" spans;
          }
        in
        Ok (Listen { addr; queue; metrics_out })
    | false, None, Some id ->
        let* () = refuse "needs --listen" listen_only in
        (* The job itself comes from the journal — serve needs no
           re-statement of the sweep/explore parameters. *)
        let* l = Dist.Journal.load ~dir:journal_dir id in
        let fleet =
          Fleet
            {
              workers = max 1 (Option.value workers ~default:2);
              resume = Some id;
              shard_size = None;
              shard_timeout = shard_timeout';
              chaos = None;
              journal_dir;
            }
        in
        Ok (Resume { job = l.Dist.Journal.l_job; fleet; out })
    | false, None, None -> Error "pass --listen ADDR, --resume JOB or --list"
    | _ -> Error "--list, --listen and --resume are mutually exclusive"
  in
  let run mode log =
    match mode with
    | List_jobs dir -> List.iter print_endline (Dist.Journal.list_ids ~dir ())
    | Listen l -> (
        let metrics = Svm.Metrics.create ~wall_clock:false () in
        let net_log = Svm.Log.sub log "net" in
        let cfg =
          {
            l.queue with
            Dist.Queue.log = net_log;
            metrics = Some metrics;
          }
        in
        match
          Dist.Queue.serve
            ~on_listen:(fun port ->
              Svm.Log.infof net_log "listening on port %d" port)
            cfg ~lookup:Experiments.Harness.dist_instance l.addr
        with
        | Ok () ->
            Svm.Log.infof net_log "drained; journals are resumable";
            Option.iter (fun file -> write_snapshot file metrics) l.metrics_out
        | Error m ->
            Format.eprintf "serve: %s@." m;
            exit 3)
    | Resume r ->
        Option.iter (print_outcome ?out:r.out)
          (run_remote ~cmd:"serve" ~log r.fleet r.job)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the network verification service (--listen), or manage \
          journalled distributed jobs: list them, or resume one (finished \
          shards are restored from the journal, only the rest re-run)")
    Term.(
      const run
      $ term_result'
          (const mode $ list_flag $ listen $ resume_arg $ workers
         $ replay_out_arg $ fsync $ heartbeat $ max_retries $ rate_limit
         $ metrics_out_arg $ shard_size_arg $ shard_timeout_arg
         $ journal_dir_arg $ spans_arg)
      $ log_t)

(* ---- top ---- *)

let top_cmd =
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print one snapshot and exit (for scripts and CI) instead of \
             refreshing.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SEC"
          ~doc:"Seconds between refreshes (without --once).")
  in
  let run (connect, addr) once json interval log =
    let cfg = client_config ~log () in
    let j = Svm.Json.member in
    let ji = json_int in
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
              (if jb pd "busy" then "busy" else "idle")
              (ji pd "bytes_in") (ji pd "frames_in") (ji pd "frames_out"))
          peers
      end;
      (* The hottest scenarios and the retry ladder come from the merged
         fleet registry (server counters + every worker push). *)
      (match Option.bind (j "metrics" doc) (j "counters") with
      | Some (Svm.Json.Obj counters as fleet) ->
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
          let c = ji fleet in
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
    Term.(const run $ connect_required_arg $ once $ json_arg $ interval $ log_t)

(* ---- soak ---- *)

let soak_cmd =
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
      value
      & opt
          (some
             (enum
                [ ("kill", `Kill); ("torn", `Torn); ("bitflip", `Bitflip) ]))
          None
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
      value
      & opt (some int) None
      & info [ "chaos-at" ] ~docv:"A" ~absent:"3"
          ~doc:"Which corpus append the kill/torn chaos strikes.")
  in
  (* --chaos-at only takes effect with a chaos that strikes an append. *)
  let chaos store at =
    let at' = Option.value at ~default:3 in
    match (store, at) with
    | None, None -> Ok None
    | Some `Kill, _ -> Ok (Some (Corpus.Store.Kill_at_append at'))
    | Some `Torn, _ -> Ok (Some (Corpus.Store.Torn_at_append at'))
    | Some `Bitflip, None -> Ok (Some Corpus.Store.Bitflip_after_cement)
    | (None | Some `Bitflip), Some _ ->
        Error "--chaos-at needs --chaos-store kill or torn"
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
  let run s seed schedules until duration batch jobs kinds max_faults within
      budget corpus_dir resume chaos max_heap_growth log =
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
        | None -> ())
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Continuously soak a scenario with seeded random schedules and \
          fault plans, cementing shrunk findings into a crash-safe \
          content-addressed corpus; SIGTERM drains cleanly and --resume \
          picks up at the next unexecuted schedule")
    Term.(
      const run $ scenario_t $ seed_arg $ schedules $ until $ duration $ batch
      $ jobs_t $ tiers_arg $ max_faults $ within $ budget_arg 20_000
      $ corpus_dir $ resume
      $ term_result' (const chaos $ chaos_store $ chaos_at)
      $ max_heap_growth $ log_t)

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
      value
      & opt
          (some
             (enum_of Corpus.Record.kind_name
                Corpus.Record.[ Finding; Metrics; State ]))
          None
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
  let run dir list kind_filter cat check compact =
    let store =
      or_exit2 (Result.map_error (( ^ ) "corpus: ") (Corpus.Store.open_ dir))
    in
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
