open Svm

(* The claims worth a report: a private fleet's outputs are the
   in-process outputs (bit for bit — outcome, replay artifact, metrics),
   lost workers degrade only the bookkeeping, a shard that keeps losing
   its worker is reported rather than retried forever, and a journalled
   job resumes without re-running finished shards. All runs fork real
   worker processes of this very binary. *)

let scenario name =
  match Scenario.find name with
  | Ok s -> Ok s
  | Error e -> Error e

let rec remove path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Every run journals under [dir], the experiment's own temporary
   directory. *)
let config ~dir ?(workers = 2) ?resume ?chaos () =
  {
    (Dist.Coordinator.default_config ~workers ()) with
    Dist.Coordinator.shard_size = Some 7;
    journal_dir = Some dir;
    resume;
    chaos_kill_shard = chaos;
  }

(* One string capturing everything the sweep produced, replay artifact
   included: equality of these strings is the identity claim. *)
let sweep_repr (o : Explore.sweep_outcome) =
  let found =
    match o.Explore.found with
    | None -> "clean"
    | Some f ->
        Format.asprintf "%s@%d, artifact %d bytes"
          f.Explore.violation.Monitor.monitor f.Explore.violation.Monitor.step
          (String.length f.Explore.replay)
  in
  Printf.sprintf "%d runs, %s" o.Explore.runs found

let sweep_pair s cfg =
  let metrics = Metrics.create ~wall_clock:false () in
  let base = Harness.sweep_scenario ~metrics s in
  let base_snap = Metrics.snapshot_string metrics in
  let metrics' = Metrics.create ~wall_clock:false () in
  match Harness.sweep_scenario_dist ~metrics:metrics' cfg s with
  | Error m -> Error m
  | Ok (Dist.Coordinator.Suspended _, _) -> Error "suspended unexpectedly"
  | Ok (Dist.Coordinator.Complete o, stats) ->
      let identical =
        (* The full artifact strings are compared, not just the summary. *)
        base.Explore.found = o.Explore.found
        && sweep_repr base = sweep_repr o
        && String.equal base_snap (Metrics.snapshot_string metrics')
      in
      Ok (base, o, stats, identical)

let identity_at ~dir workers =
  let label =
    Printf.sprintf "identity: %d worker process(es) vs in-process" workers
  in
  match scenario "safe_agreement_no_cancel" with
  | Error e -> Report.check ~label ~ok:false ~detail:e
  | Ok s -> (
      match sweep_pair s (config ~dir ~workers ()) with
      | Error m -> Report.check ~label ~ok:false ~detail:m
      | Ok (base, _, stats, identical) ->
          Report.check ~label ~ok:identical
            ~detail:
              (Printf.sprintf
                 "%s; outcome, replay artifact and metrics byte-identical \
                  across %d shard(s)"
                 (sweep_repr base) stats.shards))

let explore_identity ~dir =
  let label = "identity: exhaustive explorer, 2 workers vs in-process" in
  match scenario "safe_agreement_no_cancel" with
  | Error e -> Report.check ~label ~ok:false ~detail:e
  | Ok s -> (
      let metrics = Metrics.create ~wall_clock:false () in
      match Harness.explore_scenario ~max_crashes:1 ~metrics s with
      | Error m -> Report.check ~label ~ok:false ~detail:m
      | Ok base -> (
          let base_snap = Metrics.snapshot_string metrics in
          let metrics' = Metrics.create ~wall_clock:false () in
          match
            Harness.explore_scenario_dist ~max_crashes:1 ~metrics:metrics'
              { (config ~dir ()) with Dist.Coordinator.shard_size = Some 9 }
              s
          with
          | Error m -> Report.check ~label ~ok:false ~detail:m
          | Ok (Dist.Coordinator.Suspended _, _) ->
              Report.check ~label ~ok:false ~detail:"suspended unexpectedly"
          | Ok (Dist.Coordinator.Complete r, _) ->
              Report.check ~label
                ~ok:
                  (base.Explore.counterexample = r.Explore.counterexample
                  && base.Explore.explored = r.Explore.explored
                  && String.equal base_snap (Metrics.snapshot_string metrics'))
                ~detail:
                  (Printf.sprintf
                     "%d runs, counterexample and metrics identical"
                     base.Explore.explored)))

(* The degradation table: cut the link of the worker holding shard 0,
   k times in a row — up to the hostile threshold, which the next row
   crosses. The outcome must never change; only the stats may. *)
let degradation ~dir k =
  let label =
    Printf.sprintf "crash-tolerance: %d worker link(s) cut mid-shard" k
  in
  match scenario "safe_agreement_no_cancel" with
  | Error e -> Report.check ~label ~ok:false ~detail:e
  | Ok s -> (
      match sweep_pair s (config ~dir ~chaos:(0, k) ()) with
      | Error m -> Report.check ~label ~ok:false ~detail:m
      | Ok (_, _, stats, identical) ->
          Report.check ~label
            ~ok:(identical && stats.reassigned >= k)
            ~detail:
              (Printf.sprintf
                 "outcome identical; %d worker(s) spawned, %d reassignment(s)"
                 stats.spawned stats.reassigned))

let hostile ~dir =
  let label = "hostile shard: reported on its 3rd lost worker, never retried" in
  match scenario "safe_agreement_no_cancel" with
  | Error e -> Report.check ~label ~ok:false ~detail:e
  | Ok s -> (
      match Harness.sweep_scenario_dist (config ~dir ~chaos:(0, 3) ()) s with
      | Ok _ ->
          Report.check ~label ~ok:false
            ~detail:"a shard that kills every worker succeeded"
      | Error m ->
          let mentions =
            let n = String.length m in
            let rec go i =
              i + 7 <= n && (String.equal (String.sub m i 7) "hostile" || go (i + 1))
            in
            go 0
          in
          Report.check ~label ~ok:mentions ~detail:m)

(* What a run stopped after its first finished shard leaves behind: a
   journal of the same job holding only that shard. *)
let first_shard_journal ~dir id =
  match Dist.Journal.load ~dir id with
  | Error m -> Error m
  | Ok { l_done = []; _ } -> Error "the journal holds no finished shard"
  | Ok ({ l_done = (shard, payload) :: _; _ } as l) ->
      let j =
        Dist.Journal.create ~dir ~job:l.l_job ~cells:l.l_cells
          ~shard_size:l.l_shard_size ()
      in
      Dist.Journal.append_shard j ~shard ~payload;
      Dist.Journal.close j;
      Ok (Dist.Journal.id j)

let resume ~dir =
  let label = "resume: journalled job restarts without re-running shards" in
  match scenario "safe_agreement_no_cancel" with
  | Error e -> Report.check ~label ~ok:false ~detail:e
  | Ok s -> (
      let stopped =
        match Harness.sweep_scenario_dist (config ~dir ()) s with
        | Ok (_, { job_id; _ }) -> first_shard_journal ~dir job_id
        | Error m -> Error m
      in
      match stopped with
      | Error m -> Report.check ~label ~ok:false ~detail:m
      | Ok id -> (
          match sweep_pair s (config ~dir ~resume:id ()) with
          | Error m -> Report.check ~label ~ok:false ~detail:m
          | Ok (_, _, stats, identical) ->
              Report.check ~label
                ~ok:(identical && stats.resumed = 1)
                ~detail:
                  (Printf.sprintf
                     "%d shard(s) restored from the journal, %d executed; \
                      outcome identical to in-process"
                     stats.resumed stats.executed)))

(* The journals of every run go when the experiment ends, whether its
   checks passed, failed or raised. *)
let run () =
  let dir = Filename.temp_dir "asmsim-exp-dist-" "" in
  let checks =
    Fun.protect
      ~finally:(fun () -> remove dir)
      (fun () ->
        [
          identity_at ~dir 1;
          identity_at ~dir 2;
          identity_at ~dir 4;
          explore_identity ~dir;
          degradation ~dir 1;
          degradation ~dir 2;
          hostile ~dir;
          resume ~dir;
        ])
  in
  {
    Report.id = "DIST";
    title = "multi-process distribution: identity, crash-tolerance, resume";
    paper =
      "No paper claim. Infrastructure validation: sharding the sweeps \
       and explorations across worker processes is an implementation \
       detail, so every distributed run must produce exactly the \
       artifacts of the in-process run — under worker crashes and \
       across interrupted runs included.";
    metrics = [];
    checks;
  }
