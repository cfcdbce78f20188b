(* The six workloads. Each is a set-up that returns an instance: a job
   function that calls the layers' public entry points and checks the
   answer against pinned verdicts and counts, plus what to check after
   the timed jobs and how to tear down. *)

open Experiments

(* Domains or worker processes per job: the host has two cores. *)
let par = 2

type obs = { spans : Spans.t; metrics : Svm.Metrics.t option }

let untraced = { spans = Spans.off; metrics = None }
let call obs name f = Spans.call obs.spans name f

type ctx = {
  seed : int;
  exe : string;  (** the asmsim binary *)
  dir : string;  (** scratch directory of this set-up *)
}

type instance = {
  job : obs -> int -> (int, string) result;
      (** run job [i], check it, and return its deterministic work:
          explored runs, swept cells or soak schedules *)
  finish : obs -> (int, string) result;
      (** after the timed jobs: further checked operations, counted *)
  pids : int list;  (** other processes whose peak RSS counts *)
  teardown : unit -> unit;
}

type t = {
  name : string;
  work : string;  (** what [job] counts *)
  setup : ctx -> instance;
}

let ( let* ) = Result.bind

let find ?nprocs name =
  match Scenario.find ?nprocs name with Ok s -> s | Error m -> failwith m

let pinned what ~got ~want =
  if got = want then Ok ()
  else Error (Printf.sprintf "%s: got %d, pinned %d" what got want)

let ok_if what cond = if cond then Ok () else Error what
let nothing_more _ = Ok 0

let simple job =
  { job; finish = nothing_more; pids = []; teardown = ignore }

(* Expand a job the way serve and workers do, and pin its size: the
   set-up proves the job resolves before anything is timed. *)
let expand job ~cells =
  match Harness.dist_instance job with
  | Error m -> failwith m
  | Ok inst ->
      let got = Dist.Worker.cells_of_instance inst in
      if got <> cells then
        failwith (Printf.sprintf "plan of %d units, pinned %d" got cells)

(* {1 Exhaustive exploration} *)

type explore_pin = {
  runs : int;
  pruned_states : int;
  pruned_commutes : int;
  pruned_source : int;
  cex : string option;
  tasks : int;  (** plan-engine frontier tasks *)
}

let check_explore pin (r : Svm.Univ.t Svm.Explore.result) =
  let* () = pinned "explored runs" ~got:r.explored ~want:pin.runs in
  let* () =
    pinned "pruned states" ~got:r.pruned_states ~want:pin.pruned_states
  in
  let* () =
    pinned "pruned commutes" ~got:r.pruned_commutes ~want:pin.pruned_commutes
  in
  let* () =
    pinned "pruned source" ~got:r.pruned_source ~want:pin.pruned_source
  in
  let* () = ok_if "budget exhausted" (not r.exhausted_budget) in
  match (r.counterexample, pin.cex) with
  | None, None -> Ok r.explored
  | Some (_, msg), Some want when msg = want -> Ok r.explored
  | Some (_, msg), _ -> Error ("unexpected counterexample: " ^ msg)
  | None, Some _ -> Error "counterexample not found"

type explore_spec = {
  scenario : string;
  nprocs : int option;
  max_crashes : int;
  max_steps : int;
  pin : explore_pin;
}

let safe_agreement_explore =
  {
    scenario = "safe_agreement";
    nprocs = None;
    max_crashes = 1;
    max_steps = 12;
    pin =
      {
        runs = 47755;
        pruned_states = 30838;
        pruned_commutes = 69532;
        pruned_source = 2119;
        cex = None;
        tasks = 38;
      };
  }

let first_subset_cex =
  {
    scenario = "x_safe_agreement_first_subset";
    nprocs = Some 4;
    max_crashes = 1;
    max_steps = 16;
    pin =
      {
        runs = 5288;
        pruned_states = 928;
        pruned_commutes = 27033;
        pruned_source = 0;
        cex = Some "agreement: two distinct values decided";
        tasks = 76;
      };
  }

let explore_scenario ?metrics ?(jobs = par) spec s =
  Harness.explore_scenario ?metrics ~max_crashes:spec.max_crashes
    ~max_steps:spec.max_steps ~jobs s

let explore spec _ctx =
  let s = find ?nprocs:spec.nprocs spec.scenario in
  expand
    (Harness.explore_job ~max_crashes:spec.max_crashes
       ~max_steps:spec.max_steps s)
    ~cells:spec.pin.tasks;
  simple (fun obs _ ->
      let* r =
        call obs "Harness.explore_scenario" (fun () ->
            explore_scenario ?metrics:obs.metrics spec s)
      in
      check_explore spec.pin r)

(* {1 Fault sweeps} *)

(* The DSL twin of the builtin safe_agreement scenario. *)
let safe_agreement_source =
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

let compile_twin () =
  match Scenario.of_source safe_agreement_source with
  | Ok s -> s
  | Error m -> failwith ("safe_agreement twin: " ^ m)

let sweep_faults = 1
let sweep_window = 6
let sweep_cells = 95

let check_sweep ~cells (o : Svm.Explore.sweep_outcome) =
  let* () = pinned "swept cells" ~got:o.runs ~want:cells in
  let* () = ok_if "sweep found a violation" (o.found = None) in
  let* () = ok_if "sweep found a deadlock" (o.deadlock = None) in
  let* () = ok_if "sweep budget exhausted" (not o.exhausted) in
  Ok o.runs

let sweep _ctx =
  expand
    (Harness.sweep_job ~max_faults:sweep_faults ~op_window:sweep_window
       (compile_twin ()))
    ~cells:sweep_cells;
  simple (fun obs _ ->
      let s = call obs "Scenario.of_source" compile_twin in
      let o =
        call obs "Harness.sweep_scenario" (fun () ->
            Harness.sweep_scenario ?metrics:obs.metrics
              ~max_faults:sweep_faults ~op_window:sweep_window ~jobs:par s)
      in
      check_sweep ~cells:sweep_cells o)

(* {1 Soak into a corpus} *)

let soak_schedules = 1000

let soak_config ~seed metrics =
  {
    Soak.default_config with
    Soak.seed;
    schedules = Some soak_schedules;
    jobs = par;
    metrics;
  }

(* Jobs come in pairs: the even job soaks into a fresh corpus, the odd
   one re-soaks that corpus with the same seed, so it must find the
   same findings again, every one a dedup hit. The pairs cycle through
   a fixed pool of soak seeds, starting where --seed says. The cost of
   1,000 schedules depends on the seed — by up to 2x between seeds of
   the pool, through the findings shrunk — so a run that drew fresh
   seeds would measure its draw; a run that goes round the same pool
   several times measures the pool. *)
let soak_pool = 8
let soak_seed ~seed pair = 1 + ((abs seed + pair) mod soak_pool)

let soak ctx =
  let s = find "safe_agreement_no_cancel" in
  let corpus i = Filename.concat ctx.dir (Printf.sprintf "corpus-%d" (i / 2)) in
  Measure.mkdir_p ctx.dir;
  (match Corpus.Store.open_ (corpus 0) with
  | Ok st -> Corpus.Store.close st
  | Error m -> failwith m);
  let found_fresh = ref 0 in
  simple (fun obs i ->
      let* o =
        call obs "Soak.run" (fun () ->
            Soak.run
              (soak_config ~seed:(soak_seed ~seed:ctx.seed (i / 2)) obs.metrics)
              ~corpus_dir:(corpus i) s)
      in
      let* () = pinned "schedules" ~got:o.o_executed ~want:soak_schedules in
      let news = List.length o.o_new_findings in
      let* () =
        if i land 1 = 0 then begin
          found_fresh := news + o.o_dup_findings;
          pinned "distinct new findings"
            ~got:(List.length (List.sort_uniq compare o.o_new_findings))
            ~want:news
        end
        else begin
          Measure.rm_rf (corpus i);
          let* () = pinned "re-soak new findings" ~got:news ~want:0 in
          pinned "re-soak duplicates" ~got:o.o_dup_findings ~want:!found_fresh
        end
      in
      Ok o.o_executed)

(* {1 Remote sweeps: TCP service and fork coordinator} *)

let remote_faults = 2
let remote_window = 10
let remote_cells = 3205

(* A salted job: a larger run cap than the grid leaves the cells and
   the verdict unchanged but gives every job its own fingerprint, so
   serve can never answer it from a completed journal. *)
let salt ~seed i = remote_cells + (1000 * (abs seed mod 1_000_000)) + i

let salted_job ~seed i =
  Harness.sweep_job ~max_faults:remote_faults ~op_window:remote_window
    ~max_runs:(salt ~seed i) (find "x_compete")

let cache_probes = 3

let net ctx =
  expand (salted_job ~seed:ctx.seed 0) ~cells:remote_cells;
  let fleet = Fleet.start ~exe:ctx.exe ~dir:ctx.dir ~workers:par in
  let cfg = Lazy.force Fleet.client_config in
  let submit obs job =
    match
      call obs "Harness.submit_job_net" (fun () ->
          Harness.submit_job_net ?metrics:obs.metrics cfg job fleet.addr)
    with
    | Error m -> Error m
    | Ok (Dist.Client.Suspended id, _) -> Error ("job suspended: " ^ id)
    | Ok (Dist.Client.Finished (Dist.Client.Explore_outcome _), _) ->
        Error "sweep job answered with an exploration"
    | Ok (Dist.Client.Finished (Dist.Client.Sweep_outcome o), st) ->
        let* _ = check_sweep ~cells:remote_cells o in
        Ok st
  in
  let last = ref None in
  let job obs i =
    let job = salted_job ~seed:ctx.seed i in
    let* st = submit obs job in
    last := Some job;
    let* () = pinned "resumed shards" ~got:st.resumed ~want:0 in
    let* () = pinned "executed shards" ~got:st.executed ~want:st.shards in
    Ok remote_cells
  in
  (* Deliberate cache hits: resubmit the last job, which serve answers
     from its completed journal. The server's counter must show exactly
     these and no timed job. *)
  let finish obs =
    let hits () =
      Result.map
        (fun doc -> Fleet.counter doc "net_cache_hits_total")
        (Fleet.stats fleet)
    in
    let* before = hits () in
    let* () = pinned "cache hits among timed jobs" ~got:before ~want:0 in
    let* job = Option.to_result ~none:"no job ran" !last in
    let rec probe n =
      if n = 0 then Ok ()
      else
        let* st = call obs "cache-hit probe" (fun () -> submit obs job) in
        let* () = pinned "probe executed shards" ~got:st.executed ~want:0 in
        probe (n - 1)
    in
    let* () = probe cache_probes in
    let* after = hits () in
    let* () = pinned "cache hits" ~got:after ~want:cache_probes in
    Ok cache_probes
  in
  { job; finish; pids = Fleet.pids fleet; teardown = (fun () -> Fleet.stop fleet) }

let dist_config ctx =
  {
    (Dist.Coordinator.default_config ~workers:par ~exe:ctx.exe ()) with
    Dist.Coordinator.journal_dir = Some (Filename.concat ctx.dir "jobs");
  }

let check_dist = function
  | Error m -> Error m
  | Ok (Dist.Coordinator.Suspended id, _) -> Error ("job suspended: " ^ id)
  | Ok (Dist.Coordinator.Complete o, (st : Dist.Coordinator.stats)) ->
      let* _ = check_sweep ~cells:remote_cells o in
      let* () = pinned "workers spawned" ~got:st.spawned ~want:par in
      let* () = pinned "shards reassigned" ~got:st.reassigned ~want:0 in
      let* () = pinned "executed shards" ~got:st.executed ~want:st.shards in
      Ok st

let sweep_dist ?metrics ctx i =
  Harness.sweep_scenario_dist ?metrics ~max_faults:remote_faults
    ~op_window:remote_window
    ~max_runs:(salt ~seed:ctx.seed i) (dist_config ctx) (find "x_compete")

let dist ctx =
  expand (salted_job ~seed:ctx.seed 0) ~cells:remote_cells;
  Measure.mkdir_p ctx.dir;
  simple (fun obs i ->
      let* _ =
        check_dist
          (call obs "Harness.sweep_scenario_dist" (fun () ->
               sweep_dist ?metrics:obs.metrics ctx i))
      in
      Ok remote_cells)

let all =
  [
    { name = "explore"; work = "runs"; setup = explore safe_agreement_explore };
    { name = "explore-cex"; work = "runs"; setup = explore first_subset_cex };
    { name = "sweep"; work = "cells"; setup = sweep };
    { name = "soak"; work = "schedules"; setup = soak };
    { name = "net"; work = "cells"; setup = net };
    { name = "dist"; work = "cells"; setup = dist };
  ]
