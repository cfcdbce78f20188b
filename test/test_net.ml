(* The network service's contract, loopback edition:

   1. gatekeeping — a peer with the wrong protocol version or registry
      fingerprint gets a typed rejection and a closed socket, never a
      hang;
   2. identity — a job submitted over TCP and computed by remote
      workers merges to the same outcome and metrics snapshot as the
      in-process run, even when every worker sabotages its own writes
      (the chaos harness);
   3. drain — SIGTERM makes the server checkpoint, tell the client
      [Sc_draining], and exit 0; the suspended job id resumes against a
      restarted server and still matches the in-process run.

   The server runs as a forked child of this test (library API, port 0,
   the bound port crossing back over a pipe); workers are real forked
   processes of the real binary, exactly as in production. *)

open Svm

let check = Alcotest.check
let exe = "../bin/asmsim.exe"

let scenario name =
  match Experiments.Scenario.find name with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let fresh_dir () = Tmpdir.fresh "asmsim-net-test"

let fingerprint () = Experiments.Harness.registry_fingerprint ()

(* ------------------------------------------------------------------ *)
(* process plumbing — everything through [Unix.create_process]: other
   suites create domains, after which [Unix.fork] is off the table      *)
(* ------------------------------------------------------------------ *)

let read_file_opt p =
  match open_in_bin p with
  | exception Sys_error _ -> ""
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

(* Start the real binary as a server on 127.0.0.1:0 and scrape the
   bound port from its "[net] listening on port N" stderr line. *)
let start_server ?shard_size ?heartbeat ~dir () =
  let errfile = Filename.concat dir "server.err" in
  let errfd =
    Unix.openfile errfile [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [ exe; "serve"; "--listen"; "127.0.0.1:0"; "--journal-dir"; dir ]
    @ (match shard_size with
      | None -> []
      | Some n -> [ "--shard-size"; string_of_int n ])
    @
    match heartbeat with
    | None -> []
    | Some t -> [ "--heartbeat-timeout"; string_of_float t ]
  in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout errfd
  in
  Unix.close errfd;
  let marker = "listening on port " in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec await () =
    let s = read_file_opt errfile in
    let mn = String.length marker in
    let rec find i =
      if i + mn > String.length s then None
      else if String.sub s i mn = marker then Some (i + mn)
      else find (i + 1)
    in
    match find 0 with
    | Some digits ->
        let j = ref digits in
        while
          !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9'
        do
          incr j
        done;
        if !j > digits then
          int_of_string (String.sub s digits (!j - digits))
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "server never finished printing its port"
        else (
          Unix.sleepf 0.02;
          await ())
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "server never bound; stderr: %s" s
        else (
          Unix.sleepf 0.02;
          await ())
  in
  (pid, await ())

(* SIGTERM [target] after [delay] seconds, from a helper process, so
   the test can sit inside a blocking submit meanwhile. *)
let kill_after ~delay target =
  Unix.create_process "/bin/sh"
    [|
      "/bin/sh";
      "-c";
      Printf.sprintf "sleep %g; kill -TERM %d 2>/dev/null" delay target;
    |]
    Unix.stdin Unix.stdout Unix.stderr

(* SIGKILL [target] as soon as its stderr shows it joined a job, from a
   helper process, so the kill lands mid-run while the test sits in a
   blocking submit. *)
let kill_once_joined ~err target =
  Unix.create_process "/bin/sh"
    [|
      "/bin/sh";
      "-c";
      Printf.sprintf
        "for i in $(seq 1 250); do grep -q 'opened job' %s 2>/dev/null && \
         kill -KILL %d 2>/dev/null && exit 0; sleep 0.02; done"
        (Filename.quote err) target;
    |]
    Unix.stdin Unix.stdout Unix.stderr

(* A real worker process of the real binary, stderr captured so tests
   can prove the chaos harness actually fired. *)
let start_worker ?chaos ~err port =
  let args =
    [ exe; "work"; "--connect"; Printf.sprintf "127.0.0.1:%d" port ]
    @ (match chaos with
      | None -> []
      | Some (mode, every) ->
          [ "--chaos-net"; mode; "--chaos-every"; string_of_int every ])
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let errfd =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin devnull errfd
  in
  Unix.close devnull;
  Unix.close errfd;
  pid

let kill_quiet pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

let reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error _ -> Unix.WEXITED (-1)

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let client_config () =
  {
    (Dist.Client.default_config ~fingerprint:(fingerprint ()) ()) with
    Dist.Client.backoff_base = 0.02;
    dial_timeout = 5.;
    read_timeout = 30.;
  }

(* ------------------------------------------------------------------ *)
(* in-process reference                                                 *)
(* ------------------------------------------------------------------ *)

let sweep_repr (o : Explore.sweep_outcome) =
  let found =
    match o.Explore.found with
    | None -> "none"
    | Some f ->
        Format.asprintf "%a >> %a | %s@%d | shrink=%d | artifact=<<%s>>"
          Explore.pp_fault_schedule f.Explore.fault Explore.pp_fault_schedule
          f.Explore.shrunk f.Explore.violation.Monitor.monitor
          f.Explore.violation.Monitor.step f.Explore.shrink_runs
          f.Explore.replay
  in
  Printf.sprintf "runs=%d exhausted=%b found=%s" o.Explore.runs
    o.Explore.exhausted found

let sweep_inproc s =
  let metrics = Metrics.create ~wall_clock:false () in
  let o = Experiments.Harness.sweep_scenario ~metrics s in
  (sweep_repr o, Metrics.snapshot_string metrics)

let submit_sweep ?resume cfg s port =
  let metrics = Metrics.create ~wall_clock:false () in
  let job = Experiments.Harness.sweep_job s in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  match Experiments.Harness.submit_job_net ~metrics ?resume cfg job addr with
  | Error m -> Alcotest.failf "submit failed: %s" m
  | Ok (sub, stats) -> (sub, stats, metrics)

(* ------------------------------------------------------------------ *)
(* gatekeeping                                                          *)
(* ------------------------------------------------------------------ *)

(* The handshake fingerprint sees each builtin's shape, not only its
   name: one changed default depth is a different registry. *)
let fingerprint_sees_scenario_shape () =
  let module H = Experiments.Harness in
  let module S = Experiments.Scenario in
  let builtins = S.all () in
  let deeper =
    List.mapi
      (fun i (s : S.t) ->
        if i = 0 then { s with explore_steps = s.explore_steps + 1 } else s)
      builtins
  in
  Alcotest.(check string)
    "registry digests the builtins" (H.scenarios_fingerprint builtins)
    (fingerprint ());
  Alcotest.(check bool)
    "one explore_steps changes the digest" false
    (H.scenarios_fingerprint builtins = H.scenarios_fingerprint deeper)

let reject_fingerprint_skew () =
  let dir = fresh_dir () in
  let srv, port = start_server ~dir () in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet srv Sys.sigterm;
      ignore (reap srv))
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      match Dist.Net.dial ~timeout:5. addr with
      | Error m -> Alcotest.failf "dial failed: %s" m
      | Ok fd -> (
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              match
                Dist.Net.client_handshake fd ~role:Dist.Proto.Worker_role
                  ~fingerprint:"someone-else's-registry"
              with
              | Error (Dist.Net.Hs_rejected m) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "rejection names the fingerprint: %S" m)
                    true
                    (contains_sub m "fingerprint")
              | Error (Dist.Net.Hs_link m) ->
                  Alcotest.failf "expected a typed rejection, got link: %s" m
              | Ok () -> Alcotest.fail "fingerprint skew must be rejected")))

let reject_version_skew () =
  let dir = fresh_dir () in
  let srv, port = start_server ~dir () in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet srv Sys.sigterm;
      ignore (reap srv))
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      match Dist.Net.dial ~timeout:5. addr with
      | Error m -> Alcotest.failf "dial failed: %s" m
      | Ok fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (* Hand-craft a hello from the future. *)
              Dist.Frame.write fd
                (Dist.Proto.hello_to_json
                   {
                     Dist.Proto.h_version = Dist.Proto.net_version + 1;
                     h_role = Dist.Proto.Worker_role;
                     h_fingerprint = fingerprint ();
                   });
              match Dist.Frame.read ~timeout:5. fd with
              | Error e ->
                  Alcotest.failf "no reply to a wrong-version hello: %a"
                    Dist.Frame.pp_error e
              | Ok v -> (
                  match Dist.Proto.welcome_of_json v with
                  | Ok (Dist.Proto.Rejected m) ->
                      Alcotest.(check bool)
                        (Printf.sprintf "rejection names the version: %S" m)
                        true (contains_sub m "version")
                  | Ok Dist.Proto.Welcome ->
                      Alcotest.fail "version skew must be rejected"
                  | Error m -> Alcotest.failf "unreadable welcome: %s" m)))

(* A malformed DSL source inside a job must bounce off the server as a
   typed [Sc_rejected] — parse + validate only, no code execution — and
   the server must go on serving fresh connections afterwards. The
   client library expands jobs locally before dialing, so only a
   hand-built frame can exercise the server-side path. Beyond the
   truncated source, a source under the byte cap but nested tens of
   thousands of levels deep (once a Stack_overflow that killed the
   whole server) must bounce the same way, and so must a registry job
   with a negative run cap or window (once an [Invalid_argument] from
   planning that killed the whole server). *)
let deeply_nested_source =
  let parens n s =
    String.concat ""
      (List.init n (fun _ -> "(")) ^ s ^ String.concat "" (List.init n (fun _ -> ")"))
  in
  "scenario \"deep\" { nprocs 2 x 1 process all { decide "
  ^ parens 30_000 "0"
  ^ " } property agreement in 0 .. 1 }"

let reject_bad_source () =
  let dir = fresh_dir () in
  let srv, port = start_server ~dir () in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet srv Sys.sigterm;
      ignore (reap srv))
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let dial_ok () =
        match Dist.Net.dial ~timeout:5. addr with
        | Error m -> Alcotest.failf "dial failed: %s" m
        | Ok fd -> (
            match
              Dist.Net.client_handshake fd ~role:Dist.Proto.Client_role
                ~fingerprint:(fingerprint ())
            with
            | Ok () -> fd
            | Error (Dist.Net.Hs_rejected m) ->
                Alcotest.failf "handshake rejected: %s" m
            | Error (Dist.Net.Hs_link m) ->
                Alcotest.failf "handshake link error: %s" m)
      in
      let sourced source =
        {
          Dist.Proto.scenario = "zzz";
          nprocs = None;
          source = Some source;
          mode =
            Dist.Proto.Sweep
              {
                sw_tiers = [ "crash" ];
                sw_max_faults = 1;
                sw_op_window = 6;
                sw_max_runs = 100;
                sw_budget = None;
              };
        }
      in
      let submit_bad job needles =
        let fd = dial_ok () in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Dist.Frame.write fd
              (Dist.Proto.client_to_server_to_json
                 (Dist.Proto.Cs_submit { job; resume = None }));
            match Dist.Frame.read ~timeout:5. fd with
            | Error e ->
                Alcotest.failf "no reply to a bad-source submit: %a"
                  Dist.Frame.pp_error e
            | Ok v -> (
                match Dist.Proto.server_to_client_of_json v with
                | Ok (Dist.Proto.Sc_rejected m) ->
                    Alcotest.(check bool)
                      (Printf.sprintf "rejection is typed and spanned: %S" m)
                      true
                      (List.for_all (fun n -> contains_sub m n) needles)
                | Ok _ -> Alcotest.fail "bad source must be rejected"
                | Error m -> Alcotest.failf "unreadable reply: %s" m))
      in
      submit_bad
        (sourced "scenario \"zzz\" { nprocs 2")
        [ "cannot expand job"; "scenario source" ];
      submit_bad (sourced deeply_nested_source) [ "cannot expand job"; "nest" ];
      let x_compete = scenario "x_compete" in
      submit_bad
        (Experiments.Harness.sweep_job ~max_runs:(-1) x_compete)
        [ "max_runs"; "must not be negative" ];
      submit_bad
        (Experiments.Harness.sweep_job ~op_window:(-3) x_compete)
        [ "op_window"; "must not be negative" ];
      (* the server survives: a fresh connection still gets stats *)
      let fd2 = dial_ok () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          Dist.Frame.write fd2
            (Dist.Proto.client_to_server_to_json Dist.Proto.Cs_stats);
          match Dist.Frame.read ~timeout:5. fd2 with
          | Error e ->
              Alcotest.failf "server gone after a rejected submit: %a"
                Dist.Frame.pp_error e
          | Ok v -> (
              match Dist.Proto.server_to_client_of_json v with
              | Ok (Dist.Proto.Sc_stats _) -> ()
              | Ok _ -> Alcotest.fail "expected stats"
              | Error m -> Alcotest.failf "unreadable stats: %s" m)))

(* A job carrying a well-formed DSL source executes remotely to the
   byte-identical outcome of the same compiled scenario in-process —
   the server has never registered the name; the source on the wire is
   all it gets. *)
let dsl_source_identity () =
  let src =
    let ic = open_in_bin "../examples/safe_agreement_no_cancel.sdl" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let s =
    match Experiments.Scenario.of_source src with
    | Ok s -> s
    | Error m -> Alcotest.failf "example does not compile: %s" m
  in
  let base = sweep_inproc s in
  let dir = fresh_dir () in
  let srv, port = start_server ~shard_size:5 ~dir () in
  let err = Filename.concat dir "w-dsl.err" in
  let worker = start_worker ~err port in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet worker Sys.sigkill;
      kill_quiet srv Sys.sigterm;
      ignore (reap worker);
      ignore (reap srv))
    (fun () ->
      let sub, stats, _metrics = submit_sweep (client_config ()) s port in
      match sub with
      | Dist.Client.Suspended _ -> Alcotest.fail "job suspended without a drain"
      | Dist.Client.Finished (Dist.Client.Explore_outcome _) ->
          Alcotest.fail "sweep came back as an explore result"
      | Dist.Client.Finished (Dist.Client.Sweep_outcome o) ->
          check Alcotest.string "DSL job identical over TCP" (fst base)
            (sweep_repr o);
          Alcotest.(check bool) "shards were executed remotely" true
            (stats.Dist.Client.executed > 0))

(* ------------------------------------------------------------------ *)
(* identity over TCP, clean and under chaos                             *)
(* ------------------------------------------------------------------ *)

let net_identity ~chaos () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = sweep_inproc s in
  let dir = fresh_dir () in
  let srv, port = start_server ~shard_size:5 ~dir () in
  let errs =
    List.map (fun i -> Filename.concat dir (Printf.sprintf "w%d.err" i)) [ 1; 2 ]
  in
  let workers = List.map (fun err -> start_worker ?chaos ~err port) errs in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun pid -> kill_quiet pid Sys.sigkill) workers;
      kill_quiet srv Sys.sigterm;
      List.iter (fun pid -> ignore (reap pid)) workers;
      ignore (reap srv))
    (fun () ->
      let sub, stats, metrics = submit_sweep (client_config ()) s port in
      (match sub with
      | Dist.Client.Suspended _ ->
          Alcotest.fail "job suspended without a drain"
      | Dist.Client.Finished (Dist.Client.Explore_outcome _) ->
          Alcotest.fail "sweep came back as an explore result"
      | Dist.Client.Finished (Dist.Client.Sweep_outcome o) ->
          check Alcotest.string "outcome identical over TCP" (fst base)
            (sweep_repr o);
          check Alcotest.string "metrics identical over TCP" (snd base)
            (Metrics.snapshot_string metrics));
      Alcotest.(check bool) "shards were executed remotely" true
        (stats.Dist.Client.executed > 0);
      if chaos <> None then begin
        (* The harness must actually have fired — otherwise this test
           proves nothing about fault tolerance. *)
        let fired =
          List.exists (fun err -> contains_sub (read_file err) "chaos") errs
        in
        Alcotest.(check bool) "chaos really cut connections" true fired
      end)

let net_identity_clean = net_identity ~chaos:None

let net_identity_chaos = net_identity ~chaos:(Some ("drop", 3))

(* The acceptance bar from the issue: 4 remote workers, chaos drop on
   every one of them, one SIGKILLed mid-run — the server must reassign
   the lost shard and the merged result must still be byte-identical.
   shard_size=1 stretches the run so the kill has a wide window. *)
let net_identity_chaos_kill () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = sweep_inproc s in
  let dir = fresh_dir () in
  let srv, port = start_server ~shard_size:1 ~dir () in
  let errs =
    List.map
      (fun i -> Filename.concat dir (Printf.sprintf "kw%d.err" i))
      [ 1; 2; 3; 4 ]
  in
  let workers =
    List.map (fun err -> start_worker ~chaos:("drop", 3) ~err port) errs
  in
  let victim = List.hd workers in
  let assassin = kill_once_joined ~err:(List.hd errs) victim in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun pid -> kill_quiet pid Sys.sigkill) workers;
      kill_quiet srv Sys.sigterm;
      kill_quiet assassin Sys.sigkill;
      List.iter (fun pid -> ignore (reap pid)) (assassin :: workers);
      ignore (reap srv))
    (fun () ->
      let sub, stats, metrics = submit_sweep (client_config ()) s port in
      (* The victim must really have died of SIGKILL, not been stranded
         unkilled — otherwise this proves nothing about reassignment. *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec victim_status () =
        match Unix.waitpid [ Unix.WNOHANG ] victim with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then None
            else (
              Unix.sleepf 0.02;
              victim_status ())
        | _, st -> Some st
        | exception Unix.Unix_error _ -> None
      in
      (match victim_status () with
      | Some (Unix.WSIGNALED sg) when sg = Sys.sigkill -> ()
      | _ -> Alcotest.fail "victim worker was never SIGKILLed");
      (match sub with
      | Dist.Client.Suspended _ ->
          Alcotest.fail "job suspended without a drain"
      | Dist.Client.Finished (Dist.Client.Explore_outcome _) ->
          Alcotest.fail "sweep came back as an explore result"
      | Dist.Client.Finished (Dist.Client.Sweep_outcome o) ->
          check Alcotest.string "outcome identical despite worker SIGKILL"
            (fst base) (sweep_repr o);
          check Alcotest.string "metrics identical despite worker SIGKILL"
            (snd base)
            (Metrics.snapshot_string metrics));
      Alcotest.(check bool) "shards were executed remotely" true
        (stats.Dist.Client.executed > 0))

(* ------------------------------------------------------------------ *)
(* liveness mid-shard                                                   *)
(* ------------------------------------------------------------------ *)

(* One worker, one shard, and a server heartbeat timeout a quarter of
   the shard's compute time. Between its job-ok and its result the
   worker sends nothing but the pongs it answers from [compute_shard]'s
   tick, so those alone must keep it alive: the job must finish in one
   attempt, identical to the in-process run. The job is a safe_agreement
   sweep of up to 2 crashes in a window of 12 under a 50,000-step
   budget: 2,345 cells, one shard, ≈1.9 s on a 2-core host, since a
   survivor blocked by a crash spins to the budget. The timeout is a
   quarter of the in-process run's time, so a ping is due every eighth
   of the shard, and on that host the longest 32-cell stretch between
   two ticks is about a twentieth. *)
let liveness_mid_shard () =
  let s = scenario "safe_agreement" in
  let max_faults = 2 and op_window = 12 and budget = 50_000 in
  let metrics = Metrics.create ~wall_clock:false () in
  let t0 = Unix.gettimeofday () in
  let base =
    Experiments.Harness.sweep_scenario ~max_faults ~op_window ~budget ~jobs:1
      ~metrics s
  in
  let heartbeat = (Unix.gettimeofday () -. t0) /. 4. in
  let dir = fresh_dir () in
  let srv, port = start_server ~shard_size:4096 ~heartbeat ~dir () in
  let worker = start_worker ~err:(Filename.concat dir "live.err") port in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet worker Sys.sigkill;
      kill_quiet srv Sys.sigterm;
      ignore (reap worker);
      ignore (reap srv))
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let job =
        Experiments.Harness.sweep_job ~max_faults ~op_window ~budget s
      in
      let metrics' = Metrics.create ~wall_clock:false () in
      (match
         Experiments.Harness.submit_job_net ~metrics:metrics' (client_config ())
           job addr
       with
      | Error m -> Alcotest.failf "submit failed: %s" m
      | Ok (Dist.Client.Suspended _, _) ->
          Alcotest.fail "job suspended without a drain"
      | Ok (Dist.Client.Finished (Dist.Client.Explore_outcome _), _) ->
          Alcotest.fail "sweep came back as an explore result"
      | Ok (Dist.Client.Finished (Dist.Client.Sweep_outcome o), stats) ->
          check Alcotest.string "outcome identical to in-process"
            (sweep_repr base) (sweep_repr o);
          check Alcotest.string "metrics identical to in-process"
            (Metrics.snapshot_string metrics)
            (Metrics.snapshot_string metrics');
          check Alcotest.int "one shard" 1 stats.Dist.Client.shards;
          check Alcotest.int "every shard executed" stats.Dist.Client.shards
            stats.Dist.Client.executed);
      let counter name doc =
        Option.bind
          (Option.bind
             (Option.bind (Json.member "metrics" doc) (Json.member "counters"))
             (Json.member name))
          Json.to_int
        |> Option.value ~default:0
      in
      match Dist.Client.stats_query (client_config ()) addr with
      | Error m -> Alcotest.failf "stats query failed: %s" m
      | Ok doc ->
          check Alcotest.int "no shard reassigned" 0
            (counter "net_shard_retries_total" doc);
          check Alcotest.int "the worker joined once" 1
            (counter "net_workers_total" doc))

(* ------------------------------------------------------------------ *)
(* result cache                                                         *)
(* ------------------------------------------------------------------ *)

let cache_answers_completed_resubmit () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = sweep_inproc s in
  let dir = fresh_dir () in
  let srv, port = start_server ~shard_size:16 ~dir () in
  let worker = start_worker ~err:(Filename.concat dir "worker.err") port in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet worker Sys.sigkill;
      kill_quiet srv Sys.sigterm;
      ignore (reap worker);
      ignore (reap srv))
    (fun () ->
      (* First submission: computed by the worker, journalled shard by
         shard. *)
      (match submit_sweep (client_config ()) s port with
      | Dist.Client.Suspended _, _, _ -> Alcotest.fail "first submit suspended"
      | Dist.Client.Finished (Dist.Client.Explore_outcome _), _, _ ->
          Alcotest.fail "sweep produced an explore result"
      | Dist.Client.Finished (Dist.Client.Sweep_outcome o), stats, _ ->
          Alcotest.(check bool) "first run executes shards remotely" true
            (stats.Dist.Client.executed > 0);
          check Alcotest.string "first outcome identical to in-process"
            (fst base) (sweep_repr o));
      (* The worker is gone: a re-submitted identical job can only
         finish if the server answers it from the completed journal. *)
      kill_quiet worker Sys.sigkill;
      ignore (reap worker);
      match submit_sweep (client_config ()) s port with
      | Dist.Client.Suspended _, _, _ ->
          Alcotest.fail "cached job must finish, not suspend"
      | Dist.Client.Finished (Dist.Client.Explore_outcome _), _, _ ->
          Alcotest.fail "cached sweep came back as an explore result"
      | Dist.Client.Finished (Dist.Client.Sweep_outcome o), stats, metrics ->
          check Alcotest.int "no shard re-executed" 0
            stats.Dist.Client.executed;
          (* A sweep that found its violation never executed the shards
             past the finding cut, so the journal — and therefore the
             cache — restores only the shards up to the cut. *)
          Alcotest.(check bool) "shards restored from the journal" true
            (stats.Dist.Client.resumed > 0
            && stats.Dist.Client.resumed <= stats.Dist.Client.shards);
          check Alcotest.string "cached outcome identical to in-process"
            (fst base) (sweep_repr o);
          check Alcotest.string "cached metrics identical to in-process"
            (snd base)
            (Metrics.snapshot_string metrics))

(* ------------------------------------------------------------------ *)
(* a long-lived worker holds only live plans                            *)
(* ------------------------------------------------------------------ *)

(* One worker connection serves 50 distinct jobs back to back. It may
   keep the plan of the job in hand, never the plans of jobs that are
   over: the [worker_jobs_open] gauge it pushes on its heartbeat pongs
   must read at most 1 once all 50 have been opened. *)
let worker_job_table_bounded () =
  let s = scenario "safe_agreement" in
  let jobs = 50 in
  let dir = fresh_dir () in
  let srv, port = start_server ~heartbeat:0.4 ~dir () in
  let worker = start_worker ~err:(Filename.concat dir "jt.err") port in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet worker Sys.sigkill;
      kill_quiet srv Sys.sigterm;
      ignore (reap worker);
      ignore (reap srv))
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      for i = 1 to jobs do
        (* A distinct run cap per job: distinct fingerprints, same cells. *)
        let job =
          Experiments.Harness.sweep_job ~max_faults:1 ~op_window:1
            ~max_runs:(1000 + i) s
        in
        match
          Experiments.Harness.submit_job_net (client_config ()) job addr
        with
        | Ok (Dist.Client.Finished _, _) -> ()
        | Ok (Dist.Client.Suspended _, _) -> Alcotest.fail "job suspended"
        | Error m -> Alcotest.failf "job %d failed: %s" i m
      done;
      let metric kind name doc =
        Option.bind
          (Option.bind
             (Option.bind (Json.member "metrics" doc) (Json.member kind))
             (Json.member name))
          Json.to_int
      in
      let deadline = Unix.gettimeofday () +. 10. in
      let rec pushed () =
        match Dist.Client.stats_query (client_config ()) addr with
        | Error m -> Alcotest.failf "stats query failed: %s" m
        | Ok doc -> (
            match
              ( metric "counters" "worker_jobs_opened_total" doc,
                metric "gauges" "worker_jobs_open" doc )
            with
            | Some opened, Some open_ when opened >= jobs -> open_
            | _ when Unix.gettimeofday () > deadline ->
                Alcotest.failf "no push after the last job: %s"
                  (Json.to_string doc)
            | _ ->
                Unix.sleepf 0.05;
                pushed ())
      in
      let open_ = pushed () in
      Alcotest.(check bool)
        (Printf.sprintf "job table bounded (%d open after %d jobs)" open_ jobs)
        true (open_ <= 1))

(* ------------------------------------------------------------------ *)
(* graceful drain and resume                                            *)
(* ------------------------------------------------------------------ *)

let drain_and_resume () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = sweep_inproc s in
  let dir = fresh_dir () in
  (* Phase 1: a server with no workers — the job is accepted but cannot
     progress; SIGTERM must drain and suspend it, not strand the client. *)
  let srv, port = start_server ~shard_size:5 ~dir () in
  let killer = kill_after ~delay:0.4 srv in
  let id =
    match submit_sweep (client_config ()) s port with
    | Dist.Client.Finished _, _, _ ->
        Alcotest.fail "the job cannot finish with no workers"
    | Dist.Client.Suspended id, _, _ -> id
  in
  let srv_status = reap srv in
  ignore (reap killer);
  (match srv_status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "SIGTERM drain must exit 0");
  Alcotest.(check bool) "journal survives the drain" true
    (List.mem id (Dist.Journal.list_ids ~dir ()));
  (* Phase 2: restart, attach a worker, resume by id — and still match
     the in-process run byte for byte. *)
  let srv, port = start_server ~shard_size:5 ~dir () in
  let worker =
    start_worker ~err:(Filename.concat dir "resume-worker.err") port
  in
  Fun.protect
    ~finally:(fun () ->
      kill_quiet worker Sys.sigkill;
      kill_quiet srv Sys.sigterm;
      ignore (reap worker);
      ignore (reap srv))
    (fun () ->
      match submit_sweep ~resume:id (client_config ()) s port with
      | Dist.Client.Suspended _, _, _ ->
          Alcotest.fail "resumed job suspended again"
      | Dist.Client.Finished (Dist.Client.Explore_outcome _), _, _ ->
          Alcotest.fail "sweep resumed as an explore result"
      | Dist.Client.Finished (Dist.Client.Sweep_outcome o), stats, metrics ->
          check Alcotest.string "job id stable across the drain" id
            stats.Dist.Client.job_id;
          check Alcotest.string "resumed outcome identical to in-process"
            (fst base) (sweep_repr o);
          check Alcotest.string "resumed metrics identical to in-process"
            (snd base)
            (Metrics.snapshot_string metrics))

(* ------------------------------------------------------------------ *)
(* v2 codec: stats request/reply and the metrics-bearing pong           *)
(* ------------------------------------------------------------------ *)

let proto_v2_codec () =
  Alcotest.(check int)
    "dropping the worker's progress frames bumped the version past \
     budget-independent explore plans (5)"
    6 Dist.Proto.net_version;
  (match
     Dist.Proto.net_to_worker_of_json
       (Dist.Proto.net_to_worker_to_json (Dist.Proto.Nw_job_over { jid = "j1" }))
   with
  | Ok (Dist.Proto.Nw_job_over { jid = "j1" }) -> ()
  | Ok _ -> Alcotest.fail "job-over decoded as a different message"
  | Error e -> Alcotest.failf "job-over rejected its own JSON: %s" e);
  let rt_worker m =
    match
      Dist.Proto.net_from_worker_of_json
        (Dist.Proto.net_from_worker_to_json m)
    with
    | Ok m' -> Alcotest.(check bool) "worker frame round-trips" true (m = m')
    | Error e -> Alcotest.failf "worker frame rejected its own JSON: %s" e
  in
  (* A bare pong (v1 shape) and a metrics-bearing pong (v2 push) must
     both survive the wire; the member is simply absent when the worker
     has no registry. *)
  rt_worker (Dist.Proto.Nf_pong { metrics = None });
  let reg = Metrics.create ~wall_clock:false () in
  Metrics.bump ~by:3 (Some reg) "worker_shards_total";
  Metrics.sample (Some reg) "h.cells" 128;
  rt_worker (Dist.Proto.Nf_pong { metrics = Some (Metrics.snapshot reg) });
  (match
     Dist.Proto.client_to_server_of_json
       (Dist.Proto.client_to_server_to_json Dist.Proto.Cs_stats)
   with
  | Ok Dist.Proto.Cs_stats -> ()
  | Ok _ -> Alcotest.fail "Cs_stats decoded as a different message"
  | Error e -> Alcotest.failf "Cs_stats rejected its own JSON: %s" e);
  let doc = Json.Obj [ ("health", Json.Obj [ ("peers", Json.Int 2) ]) ] in
  (match
     Dist.Proto.server_to_client_of_json
       (Dist.Proto.server_to_client_to_json (Dist.Proto.Sc_stats doc))
   with
  | Ok (Dist.Proto.Sc_stats doc') ->
      Alcotest.(check string) "stats payload survives the wire"
        (Json.to_string doc) (Json.to_string doc')
  | Ok _ -> Alcotest.fail "Sc_stats decoded as a different message"
  | Error e -> Alcotest.failf "Sc_stats rejected its own JSON: %s" e);
  (* A stats reply with no payload is wire garbage, not an empty doc. *)
  match
    Dist.Proto.server_to_client_of_json
      (Json.Obj [ ("t", Json.String "stats") ])
  with
  | Ok _ -> Alcotest.fail "payload-less stats reply accepted"
  | Error _ -> ()

(* The key sets of the stats document, in order: [asmsim top] and the
   benchmark's fleet probe read these members by name. *)
let health_keys =
  [
    "uptime_s"; "draining"; "peers"; "workers"; "clients"; "pending";
    "jobs_active"; "queue_depth"; "in_flight"; "jobs"; "peer_detail";
  ]

let job_keys =
  [
    "jid"; "scenario"; "cells"; "shards"; "done"; "running"; "executed";
    "resumed"; "retries"; "watchers";
  ]

let peer_keys = [ "name"; "role"; "busy"; "bytes_in"; "frames_in"; "frames_out" ]

let keys_of what = function
  | Json.Obj kvs -> List.map fst kvs
  | v -> Alcotest.failf "%s is not an object: %s" what (Json.to_string v)

(* Pin the key set of [health] and of every entry of its [jobs] and
   [peer_detail] lists; returns the two lists' lengths. *)
let pin_stats_keys doc =
  let health =
    match Json.member "health" doc with
    | Some h -> h
    | None -> Alcotest.fail "stats doc has no health member"
  in
  Alcotest.(check (list string)) "health keys" health_keys
    (keys_of "health" health);
  let entries name keys =
    let l =
      Option.value ~default:[]
        (Option.bind (Json.member name health) Json.to_list)
    in
    List.iter
      (fun v -> Alcotest.(check (list string)) (name ^ " keys") keys (keys_of name v))
      l;
    List.length l
  in
  (entries "jobs" job_keys, entries "peer_detail" peer_keys)

(* `asmsim top --once' against a live server with workers attached: the
   one query must see every connected peer and an empty queue, and the
   --json twin must emit the raw stats document. Before the workers
   join, a job submitted over a raw client socket waits in the queue,
   so the document's per-job and per-peer entries can be pinned. *)
let top_sees_the_fleet () =
  let dir = fresh_dir () in
  let srv, port = start_server ~dir () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let client =
    match Dist.Net.dial ~timeout:5. addr with
    | Error m -> Alcotest.failf "dial failed: %s" m
    | Ok fd -> fd
  in
  let workers = ref [] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client with Unix.Unix_error _ -> ());
      List.iter (fun w -> kill_quiet w Sys.sigkill) !workers;
      kill_quiet srv Sys.sigterm;
      List.iter (fun w -> ignore (reap w)) !workers;
      ignore (reap srv))
    (fun () ->
      (match
         Dist.Net.client_handshake client ~role:Dist.Proto.Client_role
           ~fingerprint:(fingerprint ())
       with
      | Ok () -> ()
      | Error (Dist.Net.Hs_rejected m | Dist.Net.Hs_link m) ->
          Alcotest.failf "handshake failed: %s" m);
      let job =
        Experiments.Harness.sweep_job ~max_runs:200 (scenario "x_compete")
      in
      Dist.Frame.write client
        (Dist.Proto.client_to_server_to_json
           (Dist.Proto.Cs_submit { job; resume = None }));
      (match Dist.Frame.read ~timeout:5. client with
      | Ok v -> (
          match Dist.Proto.server_to_client_of_json v with
          | Ok (Dist.Proto.Sc_accepted _) -> ()
          | Ok _ -> Alcotest.fail "expected the job to be accepted"
          | Error m -> Alcotest.failf "unreadable reply: %s" m)
      | Error e -> Alcotest.failf "no reply to a submit: %a" Dist.Frame.pp_error e);
      (match Dist.Client.stats_query (client_config ()) addr with
      | Error m -> Alcotest.failf "stats query failed: %s" m
      | Ok doc ->
          Alcotest.(check (pair int int))
            "one waiting job; the submitter and the probe" (1, 2)
            (pin_stats_keys doc));
      (try Unix.close client with Unix.Unix_error _ -> ());
      workers :=
        [
          start_worker ~err:(Filename.concat dir "tw1.err") port;
          start_worker ~err:(Filename.concat dir "tw2.err") port;
        ];
      (* Workers race the query to the handshake, and then run the
         waiting job; poll until both are counted and the job is over
         rather than sleeping blind. *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec query () =
        match Dist.Client.stats_query (client_config ()) addr with
        | Error m -> Alcotest.failf "stats query failed: %s" m
        | Ok doc -> (
            let health k =
              Option.bind
                (Option.bind (Json.member "health" doc) (Json.member k))
                Json.to_int
            in
            match (health "workers", health "jobs_active") with
            | Some 2, Some 0 -> doc
            | _ when Unix.gettimeofday () > deadline ->
                Alcotest.failf "top never saw both workers: %s"
                  (Json.to_string doc)
            | _ ->
                Unix.sleepf 0.05;
                query ())
      in
      let doc = query () in
      Alcotest.(check (pair int int)) "no jobs; two workers and the probe"
        (0, 3) (pin_stats_keys doc);
      let health k =
        Option.bind
          (Option.bind (Json.member "health" doc) (Json.member k))
          Json.to_int
      in
      Alcotest.(check (option int)) "idle queue" (Some 0)
        (health "queue_depth");
      Alcotest.(check (option int)) "no jobs" (Some 0) (health "jobs_active");
      (* The same doc must carry a mergeable metrics member: the server's
         own registry folded with both workers' pushes. *)
      match Json.member "metrics" doc with
      | None -> Alcotest.fail "stats doc has no metrics member"
      | Some m -> (
          match Metrics.of_snapshot m with
          | Error e -> Alcotest.failf "stats metrics don't decode: %s" e
          | Ok _ -> ()))

let suite =
  [
    ( "net",
      [
        Alcotest.test_case "fingerprint sees scenario shape" `Quick
          fingerprint_sees_scenario_shape;
        Tmpdir.test_case "fingerprint skew is rejected, typed" `Quick
          reject_fingerprint_skew;
        Tmpdir.test_case "v2 codec: stats and metrics-bearing pong" `Quick
          proto_v2_codec;
        Tmpdir.test_case "stats query sees peers and queue" `Quick
          top_sees_the_fleet;
        Tmpdir.test_case "version skew is rejected, typed" `Quick
          reject_version_skew;
        Tmpdir.test_case "malformed DSL source is rejected, typed" `Quick
          reject_bad_source;
        Tmpdir.test_case "DSL source job: TCP identity, 1 worker" `Quick
          dsl_source_identity;
        Tmpdir.test_case "TCP identity, 2 remote workers" `Quick
          net_identity_clean;
        Tmpdir.test_case "TCP identity under --chaos-net drop" `Quick
          net_identity_chaos;
        Tmpdir.test_case "TCP identity, 4 workers, chaos + SIGKILL" `Quick
          net_identity_chaos_kill;
        Tmpdir.test_case "pings answered mid-shard keep one worker alive"
          `Quick liveness_mid_shard;
        Tmpdir.test_case "completed journal answers a re-submit" `Quick
          cache_answers_completed_resubmit;
        Tmpdir.test_case "one worker, 50 jobs: job table stays bounded"
          `Quick worker_job_table_bounded;
        Tmpdir.test_case "SIGTERM drains; the job resumes" `Quick
          drain_and_resume;
      ] );
  ]
