(* The [--dist N] runner's whole contract in four claims:

   1. identity — a --dist run's outcome, replay artifact and metrics
      snapshot are byte-identical to the in-process run's, at any
      worker count;
   2. crash-tolerance — workers that die (SIGKILL) or lose their link
      mid-shard change nothing but the stats: dead workers are replaced,
      the lost shard is re-dealt, and a shard that keeps losing its
      worker is reported hostile, not retried forever;
   3. resumability — SIGTERM suspends a run; it restarts from its
      journal without re-running completed shards, and refuses a
      different job;
   4. privacy — only this user's processes can reach the queue.

   The job queue runs in this test process; its workers are real forked
   processes of the real binary (dune's [deps] places ../bin/asmsim.exe
   next to this test's cwd). *)

open Svm

let check = Alcotest.check
let exe = "../bin/asmsim.exe"

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let scenario name =
  match Experiments.Scenario.find name with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let fresh_dir () = Tmpdir.fresh "asmsim-dist-test"

let config ?(workers = 2) ?(exe = exe) ?shard_size ?journal_dir ?resume ?chaos
    () =
  let journal_dir =
    match journal_dir with Some d -> d | None -> fresh_dir ()
  in
  {
    (Dist.Coordinator.default_config ~workers ~exe ()) with
    Dist.Coordinator.shard_size;
    journal_dir = Some journal_dir;
    resume;
    chaos_kill_shard = chaos;
  }

let worker_script body =
  let dir = fresh_dir () in
  let script = Filename.concat dir "worker.sh" in
  Out_channel.with_open_text script (fun oc ->
      Printf.fprintf oc "#!/bin/sh\n%s\n" (body ~dir));
  Unix.chmod script 0o755;
  script

let real_exe () = Filename.quote (Unix.realpath exe)

(* A worker binary whose first two starts die of SIGKILL before they
   ever dial the queue; every later start is the real worker. *)
let killed_twice_exe () =
  worker_script (fun ~dir ->
      Printf.sprintf
        "mkdir %s 2>/dev/null && kill -KILL $$\n\
         mkdir %s 2>/dev/null && kill -KILL $$\n\
         exec %s \"$@\""
        (Filename.quote (Filename.concat dir "first"))
        (Filename.quote (Filename.concat dir "second"))
        (real_exe ()))

(* A worker binary whose every frame write stalls 50 ms, so each shard
   takes at least 100 ms: room to stop a run between two shards. *)
let slow_exe () =
  worker_script (fun ~dir:_ ->
      Printf.sprintf "exec %s \"$@\" --chaos-net delay --chaos-every 1"
        (real_exe ()))

(* ------------------------------------------------------------------ *)
(* sweep identity                                                       *)
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
  let deadlock =
    match o.Explore.deadlock with
    | None -> "none"
    | Some d -> Format.asprintf "%a" Explore.pp_fault_schedule d
  in
  Printf.sprintf "runs=%d exhausted=%b deadlock=%s found=%s" o.Explore.runs
    o.Explore.exhausted deadlock found

let sweep_inproc s =
  let metrics = Metrics.create ~wall_clock:false () in
  let o = Experiments.Harness.sweep_scenario ~metrics s in
  (sweep_repr o, Metrics.snapshot_string metrics)

let sweep_dist cfg s =
  let metrics = Metrics.create ~wall_clock:false () in
  match Experiments.Harness.sweep_scenario_dist ~metrics cfg s with
  | Error m -> Alcotest.failf "dist sweep failed: %s" m
  | Ok (Dist.Coordinator.Suspended _, _) ->
      Alcotest.fail "dist sweep suspended unexpectedly"
  | Ok (Dist.Coordinator.Complete o, stats) ->
      ((sweep_repr o, Metrics.snapshot_string metrics), stats)

let sweep_identity name () =
  let s = scenario name in
  let base = sweep_inproc s in
  List.iter
    (fun workers ->
      let got, _ =
        sweep_dist (config ~workers ~shard_size:7 ()) s
      in
      let label p = Printf.sprintf "%s, %d workers: %s" name workers p in
      check Alcotest.string (label "outcome + artifact") (fst base) (fst got);
      check Alcotest.string (label "metrics snapshot") (snd base) (snd got))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* explore identity                                                     *)
(* ------------------------------------------------------------------ *)

let explore_repr (r : Univ.t Explore.result) =
  let cex =
    match r.Explore.counterexample with
    | None -> "none"
    | Some (run, msg) ->
        Printf.sprintf "%s | %s | crashed=[%s] | truncated=%b"
          run.Explore.schedule msg
          (String.concat ";" (List.map string_of_int run.Explore.crashed))
          run.Explore.truncated
  in
  Printf.sprintf "explored=%d pruned=%d+%d exhausted=%b cex=%s"
    r.Explore.explored r.Explore.pruned_states r.Explore.pruned_commutes
    r.Explore.exhausted_budget cex

let explore_inproc ~max_crashes s =
  let metrics = Metrics.create ~wall_clock:false () in
  match Experiments.Harness.explore_scenario ~max_crashes ~metrics s with
  | Error m -> Alcotest.fail m
  | Ok r -> (explore_repr r, Metrics.snapshot_string metrics)

let explore_dist ~max_crashes cfg s =
  let metrics = Metrics.create ~wall_clock:false () in
  match Experiments.Harness.explore_scenario_dist ~max_crashes ~metrics cfg s with
  | Error m -> Alcotest.failf "dist explore failed: %s" m
  | Ok (Dist.Coordinator.Suspended _, _) ->
      Alcotest.fail "dist explore suspended unexpectedly"
  | Ok (Dist.Coordinator.Complete r, stats) ->
      ((explore_repr r, Metrics.snapshot_string metrics), stats)

let explore_identity name ~max_crashes () =
  let s = scenario name in
  let base = explore_inproc ~max_crashes s in
  List.iter
    (fun workers ->
      let got, _ =
        explore_dist ~max_crashes (config ~workers ~shard_size:9 ()) s
      in
      let label p = Printf.sprintf "%s, %d workers: %s" name workers p in
      check Alcotest.string (label "result") (fst base) (fst got);
      check Alcotest.string (label "metrics snapshot") (snd base) (snd got))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* crash-tolerance                                                      *)
(* ------------------------------------------------------------------ *)

(* Two workers die of SIGKILL before joining and must be replaced; the
   link of the worker dealt the chaos shard is cut mid-shard, and the
   shard must be re-dealt. Only the stats may show it. *)
let check_losses (stats : Dist.Coordinator.stats) =
  Alcotest.(check bool) "the SIGKILLed workers were replaced" true
    (stats.spawned >= 4);
  Alcotest.(check bool) "the cut shard was re-dealt" true
    (stats.reassigned >= 1)

let chaos_identical () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = sweep_inproc s in
  let got, stats =
    sweep_dist
      (config ~exe:(killed_twice_exe ()) ~shard_size:7 ~chaos:(0, 1) ())
      s
  in
  check Alcotest.string "outcome despite SIGKILLed workers" (fst base)
    (fst got);
  check Alcotest.string "metrics despite SIGKILLed workers" (snd base)
    (snd got);
  check_losses stats

let chaos_explore_identical () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = explore_inproc ~max_crashes:1 s in
  let got, stats =
    explore_dist ~max_crashes:1
      (config ~exe:(killed_twice_exe ()) ~shard_size:9 ~chaos:(1, 1) ())
      s
  in
  check Alcotest.string "explore outcome despite SIGKILLed workers"
    (fst base) (fst got);
  check Alcotest.string "explore metrics despite SIGKILLed workers"
    (snd base) (snd got);
  check_losses stats

let hostile_shard () =
  let s = scenario "safe_agreement_no_cancel" in
  match
    Experiments.Harness.sweep_scenario_dist
      (config ~shard_size:7 ~chaos:(0, 99) ())
      s
  with
  | Ok _ -> Alcotest.fail "a shard that loses every worker must not succeed"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions hostility: %S" m)
        true (contains_sub m "hostile")

(* ------------------------------------------------------------------ *)
(* only this user reaches a fleet's queue                               *)
(* ------------------------------------------------------------------ *)

(* The children are told a socket path inside a fresh 0700 directory,
   gone once the run returns. Run as root, the worker script also sends
   an intruder first: the same binary, as user nobody, dialing the live
   queue — the kernel must refuse it, so no forged worker can join. *)
let private_queue () =
  let log = Filename.concat (fresh_dir ()) "log" in
  (* The intruder's copy of the binary goes to a world-readable
     directory under /tmp: the temp dir may be one nobody can enter. *)
  let exe =
    worker_script (fun ~dir:_ ->
        Printf.sprintf
          "echo \"$3\" >> %s\n\
           stat -c %%a \"$(dirname \"$3\")\" >> %s\n\
           if [ \"$(id -u)\" = 0 ]; then\n\
          \  I=$(mktemp -d /tmp/asmsim-intruder.XXXXXX) && chmod 755 \"$I\"\n\
          \  cp %s \"$I/asmsim.exe\"\n\
          \  chroot --userspec=65534:65534 / \"$I/asmsim.exe\" work \
           --connect \"$3\" --retries 1 2>> %s\n\
          \  rm -rf \"$I\"\n\
           fi\n\
           exec %s \"$@\""
          (Filename.quote log) (Filename.quote log) (real_exe ())
          (Filename.quote log) (real_exe ()))
  in
  let s = scenario "safe_agreement_no_cancel" in
  ignore (sweep_dist (config ~workers:1 ~exe ~shard_size:7 ()) s);
  let recorded = In_channel.with_open_text log In_channel.input_all in
  let path, mode =
    match String.split_on_char '\n' recorded with
    | path :: mode :: _ -> (path, mode)
    | _ -> Alcotest.fail "the worker recorded no address"
  in
  (match Dist.Net.parse_addr path with
  | Ok (Unix.ADDR_UNIX _) -> ()
  | _ -> Alcotest.failf "not a Unix-domain socket path: %S" path);
  check Alcotest.string "socket directory mode" "700" mode;
  Alcotest.(check bool)
    "socket directory removed after the run" false
    (Sys.file_exists (Filename.dirname path));
  if Unix.geteuid () = 0 then
    Alcotest.(check bool)
      (Printf.sprintf "another user's dial is refused: %S" recorded)
      true
      (contains_sub recorded "connect failed (Permission denied)")

(* A SIGKILLed run never removes its private directory; the next
   [listen_private] removes it — and only it. Each directory below is
   named like a private one, [queue] a socket bound and listened on, or
   not there at all. *)
let stale_private_dirs () =
  let base = fresh_dir () in
  let dir ?(mode = 0o700) ?listener name =
    let d = Filename.concat base name in
    Unix.mkdir d 0o700;
    Unix.chmod d mode;
    let fd =
      Option.map
        (fun () ->
          fst (Dist.Net.listen (Unix.ADDR_UNIX (Filename.concat d "queue"))))
        listener
    in
    (d, fd)
  in
  let closed (d, fd) =
    Option.iter Unix.close fd;
    d
  in
  let stale = closed (dir ~listener:() "asmsim-stale") in
  let live, live_fd = dir ~listener:() "asmsim-live" in
  let no_socket = closed (dir "asmsim-unbound") in
  let open_mode = closed (dir ~mode:0o755 ~listener:() "asmsim-open") in
  let other_name = closed (dir ~listener:() "other-stale") in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name base;
  let fd, path, remove =
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name saved)
      Dist.Net.listen_private
  in
  Unix.close fd;
  remove ();
  Option.iter Unix.close live_fd;
  let exists d = Sys.file_exists d in
  Alcotest.(check bool) "own directory is under the temp dir" true
    (Filename.dirname (Filename.dirname path) = base);
  Alcotest.(check bool) "stale directory removed" false (exists stale);
  Alcotest.(check bool) "live fleet's directory kept" true (exists live);
  Alcotest.(check bool) "directory with no socket kept" true (exists no_socket);
  Alcotest.(check bool) "directory not of mode 0700 kept" true
    (exists open_mode);
  Alcotest.(check bool) "directory of another name kept" true
    (exists other_name);
  ignore (Sys.command ("rm -rf " ^ Filename.quote base))

(* ------------------------------------------------------------------ *)
(* SIGTERM suspends; resume finishes from the journal                   *)
(* ------------------------------------------------------------------ *)

(* SIGTERM this process once a job under [dir] has journalled a shard,
   from a second domain while the main one is in the fleet's loop. *)
let sigterm_after_first_shard dir =
  Domain.spawn (fun () ->
      let journalled () =
        List.exists
          (fun id ->
            match Dist.Journal.load ~dir id with
            | Ok l -> l.Dist.Journal.l_done <> []
            | Error _ -> false)
          (Dist.Journal.list_ids ~dir ())
      in
      let rec wait n =
        if journalled () then Unix.kill (Unix.getpid ()) Sys.sigterm
        else if n > 0 then begin
          Unix.sleepf 0.002;
          wait (n - 1)
        end
      in
      wait 10_000)

let resume_no_rerun () =
  let s = scenario "safe_agreement" in
  let base = sweep_inproc s in
  let dir = fresh_dir () in
  (* A late SIGTERM must not kill the test binary. *)
  let prev = Sys.signal Sys.sigterm (Sys.Signal_handle ignore) in
  let stopper = sigterm_after_first_shard dir in
  let stopped =
    Experiments.Harness.sweep_scenario_dist
      (config ~workers:1 ~exe:(slow_exe ()) ~shard_size:7 ~journal_dir:dir ())
      s
  in
  Domain.join stopper;
  Sys.set_signal Sys.sigterm prev;
  let id =
    match stopped with
    | Ok (Dist.Coordinator.Suspended id, st) ->
        check Alcotest.string "suspended under its journal id" st.job_id id;
        id
    | Ok (Dist.Coordinator.Complete _, _) ->
        Alcotest.fail "the run finished before SIGTERM could stop it"
    | Error m -> Alcotest.failf "the stopped run failed: %s" m
  in
  let got, stats =
    sweep_dist (config ~shard_size:7 ~journal_dir:dir ~resume:id ()) s
  in
  check Alcotest.string "the resumed job keeps its id" id stats.job_id;
  Alcotest.(check bool)
    "the journalled shards were restored" true (stats.resumed >= 1);
  check Alcotest.int "every shard ran exactly once across both runs"
    stats.shards
    (stats.executed + stats.resumed);
  check Alcotest.string "resumed outcome identical to in-process" (fst base)
    (fst got);
  check Alcotest.string "resumed metrics identical to in-process" (snd base)
    (snd got)

let resume_rejects_other_job () =
  let s = scenario "safe_agreement_no_cancel" in
  let dir = fresh_dir () in
  let _, stats = sweep_dist (config ~shard_size:7 ~journal_dir:dir ()) s in
  (* Same id, different parameters: the fingerprint check must refuse. *)
  match
    Experiments.Harness.sweep_scenario_dist ~max_faults:2
      (config ~shard_size:7 ~journal_dir:dir ~resume:stats.job_id ())
      s
  with
  | Ok _ -> Alcotest.fail "resume under different parameters must fail"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions the mismatch: %S" m)
        true
        (contains_sub m "different job")

(* ------------------------------------------------------------------ *)
(* retry/heartbeat policy — the pure decisions behind the job queue,
   pinned exactly                                                       *)
(* ------------------------------------------------------------------ *)

let policy_backoff_schedule () =
  (* attempt k re-deals after base * 2^(k-1): the documented schedule,
     value by value. *)
  List.iter
    (fun (attempt, expect) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "delay before attempt %d" attempt)
        expect
        (Dist.Policy.backoff_delay ~base:0.05 ~attempt))
    [ (0, 0.); (1, 0.05); (2, 0.1); (3, 0.2); (4, 0.4); (5, 0.8) ];
  match Dist.Policy.retry ~max_retries:3 ~base:0.05 ~attempts:2 with
  | Dist.Policy.Requeue d -> check (Alcotest.float 1e-9) "requeue delay" 0.1 d
  | Dist.Policy.Hostile -> Alcotest.fail "attempt 2 of 3 must requeue"

let policy_hostile_after_k_plus_1 () =
  (* max_retries = k: kills 1..k are retried; the k+1th kill makes the
     shard hostile — never retried forever. *)
  let k = 2 in
  for attempts = 1 to k do
    match Dist.Policy.retry ~max_retries:k ~base:0.01 ~attempts with
    | Dist.Policy.Requeue _ -> ()
    | Dist.Policy.Hostile ->
        Alcotest.failf "kill %d of max %d must still requeue" attempts k
  done;
  match Dist.Policy.retry ~max_retries:k ~base:0.01 ~attempts:(k + 1) with
  | Dist.Policy.Hostile -> ()
  | Dist.Policy.Requeue _ ->
      Alcotest.failf "kill %d must be hostile (k+1 kills)" (k + 1)

let policy_heartbeat_edges () =
  let hb ~silent ~pinged =
    Dist.Policy.heartbeat ~timeout:20. ~silent ~pinged
  in
  (* quiet < timeout/2: leave the peer alone *)
  (match hb ~silent:9.9 ~pinged:false with
  | Dist.Policy.Wait -> ()
  | _ -> Alcotest.fail "under half the timeout: wait");
  (* past the half-timeout edge: ping once... *)
  (match hb ~silent:10.1 ~pinged:false with
  | Dist.Policy.Ping -> ()
  | _ -> Alcotest.fail "past half the timeout, unpinged: ping");
  (* ...and only once *)
  (match hb ~silent:10.1 ~pinged:true with
  | Dist.Policy.Wait -> ()
  | _ -> Alcotest.fail "already pinged: wait for the pong");
  (* past the full timeout the peer is dead, pinged or not *)
  (match hb ~silent:20.1 ~pinged:true with
  | Dist.Policy.Dead -> ()
  | _ -> Alcotest.fail "past the timeout: dead");
  match hb ~silent:20.1 ~pinged:false with
  | Dist.Policy.Dead -> ()
  | _ -> Alcotest.fail "past the timeout without a ping: still dead"

let policy_reconnect_jitter () =
  (* growth up to the cap, with rand pinned to 1.0 *)
  List.iter
    (fun (attempt, expect) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "reconnect delay, attempt %d" attempt)
        expect
        (Dist.Policy.reconnect_delay ~base:0.2 ~cap:5.0 ~attempt ~rand:1.0))
    [ (0, 0.2); (1, 0.4); (2, 0.8); (3, 1.6); (4, 3.2); (5, 5.0); (9, 5.0) ];
  (* jitter scales the delay but never below the 10% floor *)
  check (Alcotest.float 1e-9) "jitter floor" 0.02
    (Dist.Policy.reconnect_delay ~base:0.2 ~cap:5.0 ~attempt:0 ~rand:0.0)

(* ------------------------------------------------------------------ *)
(* journal crash-safety: a torn final line is recovered from, both by
   the reader and by a resuming writer                                  *)
(* ------------------------------------------------------------------ *)

let journal_path dir id =
  Filename.concat (Filename.concat dir id) "journal.jsonl"

let journal_setup () =
  let s = scenario "safe_agreement_no_cancel" in
  let dir = fresh_dir () in
  let job = Experiments.Harness.sweep_job s in
  let j = Dist.Journal.create ~dir ~job ~cells:65 ~shard_size:7 () in
  Dist.Journal.append_shard j ~shard:0 ~payload:(Json.String "CCCCCCC");
  Dist.Journal.append_shard j ~shard:1 ~payload:(Json.String "DDDDDDD");
  Dist.Journal.close j;
  (dir, Dist.Journal.id j)

let tear_final_line dir id =
  (* Chop bytes off the end, past the last record's newline: what a
     crash mid-append leaves on disk. *)
  let p = journal_path dir id in
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  close_in ic;
  let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (n - 3);
  Unix.close fd

let journal_torn_line_load () =
  let dir, id = journal_setup () in
  tear_final_line dir id;
  match Dist.Journal.load ~dir id with
  | Error m -> Alcotest.failf "torn journal must still load: %s" m
  | Ok l ->
      (* The torn record is dropped; the complete prefix survives. *)
      check Alcotest.int "complete shards recovered" 1
        (List.length l.Dist.Journal.l_done);
      (match l.Dist.Journal.l_done with
      | [ (0, Json.String "CCCCCCC") ] -> ()
      | _ -> Alcotest.fail "wrong shard recovered from the torn journal");
      check Alcotest.int "cells metadata intact" 65 l.Dist.Journal.l_cells

let journal_torn_line_reopen () =
  let dir, id = journal_setup () in
  tear_final_line dir id;
  (* Reopen must truncate the torn tail and append cleanly after it. *)
  (match Dist.Journal.reopen ~dir id with
  | Error m -> Alcotest.failf "torn journal must reopen: %s" m
  | Ok j ->
      Dist.Journal.append_shard j ~shard:1 ~payload:(Json.String "VVVVVVV");
      Dist.Journal.close j);
  match Dist.Journal.load ~dir id with
  | Error m -> Alcotest.failf "journal unreadable after reopen: %s" m
  | Ok l -> (
      check Alcotest.int "both shards present after repair" 2
        (List.length l.Dist.Journal.l_done);
      match List.assoc_opt 1 l.Dist.Journal.l_done with
      | Some (Json.String "VVVVVVV") -> ()
      | _ -> Alcotest.fail "the re-appended shard must replace the torn one")

(* A complete line that does not decode — what a crash can leave when
   the file system persists the newline of a half-written line — ends
   the journal for reopen exactly as for load: a shard appended after
   it must be visible to the next load, not hidden behind it. *)
let journal_corrupt_line_reopen () =
  let dir, id = journal_setup () in
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 (journal_path dir id)
  in
  output_string oc "{\"shard\": 2, \"payl\n";
  close_out oc;
  (match Dist.Journal.reopen ~dir id with
  | Error m -> Alcotest.failf "journal must reopen: %s" m
  | Ok j ->
      Dist.Journal.append_shard j ~shard:2 ~payload:(Json.String "EEEEEEE");
      Dist.Journal.close j);
  match Dist.Journal.load ~dir id with
  | Error m -> Alcotest.failf "journal unreadable after reopen: %s" m
  | Ok l ->
      check
        Alcotest.(list int)
        "the shard appended after the corrupt line is loaded" [ 0; 1; 2 ]
        (List.map fst l.Dist.Journal.l_done)

let journal_fsync_flag () =
  (* The fsync path must write the same bytes as the buffered path. *)
  let s = scenario "safe_agreement_no_cancel" in
  let job = Experiments.Harness.sweep_job s in
  let write dir fsync =
    let j = Dist.Journal.create ~dir ~fsync ~job ~cells:65 ~shard_size:7 () in
    Dist.Journal.append_shard j ~shard:0 ~payload:(Json.String "CCCCCCC");
    Dist.Journal.append_hostile j ~shard:3;
    Dist.Journal.close j;
    let ic = open_in_bin (journal_path dir (Dist.Journal.id j)) in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    contents
  in
  check Alcotest.string "fsync changes durability, not bytes"
    (write (fresh_dir ()) false)
    (write (fresh_dir ()) true)

let journal_fsync_rename_reopen () =
  (* The fsync path syncs the journal's directory entries, not just its
     bytes — exercised by the harshest rename a filesystem offers short
     of power loss: move the whole job directory and reopen it under
     its new name, appending across the boundary. *)
  let s = scenario "safe_agreement_no_cancel" in
  let job = Experiments.Harness.sweep_job s in
  let dir = fresh_dir () in
  let j = Dist.Journal.create ~dir ~fsync:true ~job ~cells:65 ~shard_size:7 () in
  let old_id = Dist.Journal.id j in
  Dist.Journal.append_shard j ~shard:0 ~payload:(Json.String "CCCCCCC");
  Dist.Journal.close j;
  let new_id = old_id ^ "-renamed" in
  Unix.rename (Filename.concat dir old_id) (Filename.concat dir new_id);
  (match Dist.Journal.reopen ~dir ~fsync:true new_id with
  | Error m -> Alcotest.failf "renamed journal must reopen: %s" m
  | Ok j2 ->
      Dist.Journal.append_shard j2 ~shard:1 ~payload:(Json.String "VVVVVVV");
      Dist.Journal.close j2);
  match Dist.Journal.load ~dir new_id with
  | Error m -> Alcotest.failf "renamed journal unreadable: %s" m
  | Ok l ->
      check Alcotest.int "shards from both lives present" 2
        (List.length l.Dist.Journal.l_done);
      Alcotest.(check bool) "old id is gone" false
        (List.mem old_id (Dist.Journal.list_ids ~dir ()))

(* The result-cache marker is keyed by the protocol version as well as
   the job fingerprint: a marker an older binary left under the bare
   fingerprint must not answer, a same-version completion must. *)
let marker_tracks_net_version () =
  let dir, id = journal_setup () in
  let fingerprint = "job-fingerprint" in
  let completed = Filename.concat dir "completed" in
  Unix.mkdir completed 0o755;
  Out_channel.with_open_bin
    (Filename.concat completed (Digest.to_hex (Digest.string fingerprint)))
    (fun oc -> output_string oc id);
  check
    Alcotest.(option string)
    "a bare-fingerprint marker is no cache hit" None
    (Dist.Journal.completed_id ~dir ~fingerprint ());
  match Dist.Journal.reopen ~dir id with
  | Error m -> Alcotest.failf "journal must reopen: %s" m
  | Ok j ->
      Dist.Journal.mark_complete j ~fingerprint;
      Dist.Journal.close j;
      check
        Alcotest.(option string)
        "a same-version marker is a cache hit" (Some id)
        (Dist.Journal.completed_id ~dir ~fingerprint ())

let suite =
  [
    ( "dist",
      [
        Tmpdir.test_case "sweep identity (seeded bug 1)" `Quick
          (sweep_identity "safe_agreement_no_cancel");
        Tmpdir.test_case "sweep identity (seeded bug 2)" `Quick
          (sweep_identity "x_safe_agreement_first_subset");
        Tmpdir.test_case "explore identity (seeded bug 1)" `Quick
          (explore_identity "safe_agreement_no_cancel" ~max_crashes:1);
        Tmpdir.test_case "worker SIGKILL changes nothing (sweep)" `Quick
          chaos_identical;
        Tmpdir.test_case "worker SIGKILL changes nothing (explore)" `Quick
          chaos_explore_identical;
        Tmpdir.test_case "hostile shard is reported, not retried forever"
          `Quick hostile_shard;
        Tmpdir.test_case "only this user reaches the private queue" `Quick
          private_queue;
        Tmpdir.test_case "a killed run's private directory is removed"
          `Quick stale_private_dirs;
        Tmpdir.test_case "resume runs no shard twice" `Quick resume_no_rerun;
        Tmpdir.test_case "resume refuses a different job" `Quick
          resume_rejects_other_job;
        Tmpdir.test_case "retry backoff schedule is exact" `Quick
          policy_backoff_schedule;
        Tmpdir.test_case "shard is hostile after k+1 kills" `Quick
          policy_hostile_after_k_plus_1;
        Tmpdir.test_case "heartbeat pings at half-timeout, once" `Quick
          policy_heartbeat_edges;
        Tmpdir.test_case "reconnect backoff: growth, cap, jitter floor"
          `Quick policy_reconnect_jitter;
        Tmpdir.test_case "journal survives a torn final line" `Quick
          journal_torn_line_load;
        Tmpdir.test_case "journal reopen truncates the torn tail" `Quick
          journal_torn_line_reopen;
        Tmpdir.test_case "journal reopen cuts a corrupt complete line" `Quick
          journal_corrupt_line_reopen;
        Tmpdir.test_case "journal --fsync writes identical bytes" `Quick
          journal_fsync_flag;
        Tmpdir.test_case "journal --fsync survives rename-then-reopen"
          `Quick journal_fsync_rename_reopen;
        Tmpdir.test_case "cache marker tracks the protocol version" `Quick
          marker_tracks_net_version;
      ] );
  ]
