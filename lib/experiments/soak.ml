open Svm

type config = {
  seed : int;
  schedules : int option;
  until : int option;
  duration : float option;
  batch : int;
  jobs : int;
  kinds : Adversary.fault_kind list;
  max_faults : int;
  within : int;
  budget : int;
  resume : bool;
  chaos : Corpus.Store.chaos option;
  log : Svm.Log.t;
  metrics : Metrics.t option;
}

let default_config =
  {
    seed = 1;
    schedules = None;
    until = None;
    duration = None;
    batch = 256;
    jobs = 1;
    kinds = [ Adversary.Crash_stop ];
    max_faults = 2;
    within = 30;
    budget = 20_000;
    resume = false;
    chaos = None;
    log = Svm.Log.null;
    metrics = None;
  }

type outcome = {
  o_executed : int;
  o_first_index : int;
  o_next_index : int;
  o_clean : int;
  o_deadlocks : int;
  o_new_findings : string list;
  o_dup_findings : int;
  o_batches : int;
  o_heap_growth_words : int;
  o_corpus_records : int;
  o_stop : [ `Schedules | `Duration | `Sigterm ];
}

let logf cfg fmt = Svm.Log.infof cfg.log fmt

let bump cfg = Metrics.bump cfg.metrics

(* ------------------------------------------------------------------ *)
(* Deterministic schedule derivation                                   *)
(* ------------------------------------------------------------------ *)

(* Schedule [k] of a soak seeded [seed] is a pure function of the pair:
   one splitmix stream per index yields the scheduler seed and the
   fault-plan seed. Any schedule can be re-derived years later — which
   is what lets findings re-run, shrink, and resume without storing the
   schedules themselves. The schedule comes back as the fault schedule
   a sweep cell would name, [random(SEED) + [faults]], with the
   scheduler that name stands for. *)
let schedule cfg ~nprocs k =
  let r = Rng.create ((cfg.seed * 1_000_003) + k) in
  let sched_seed = Rng.int r 1_000_000_000 in
  let fault_seed = Rng.int r 1_000_000_000 in
  let nfaults = Rng.int r (cfg.max_faults + 1) in
  let faults =
    List.map
      (fun (victim, op, kind) -> { Explore.victim; op; kind })
      (Adversary.random_fault_plan ~within:cfg.within ~seed:fault_seed
         ~max_faults:nfaults ~kinds:cfg.kinds ~nprocs ())
  in
  ( { Explore.scheduler = Printf.sprintf "random(%d)" sched_seed; faults },
    fun () -> Adversary.random ~seed:sched_seed )

(* ------------------------------------------------------------------ *)
(* The hot loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Run schedules [lo, hi) on a fresh arena; returns the interesting
   (violating or deadlocked) indices with their verdicts in index order,
   the clean count and how many schedules ran before a SIGTERM stopped
   the chunk. Every schedule is checkpointed, judged and rolled back —
   the environment is bit-identical before and after, so the chunk's
   schedules share one store with zero per-run copying. *)
let run_chunk cfg (s : Scenario.t) ~stop ~lo ~hi =
  let env, progs = s.Scenario.make () in
  Env.enable_journal env;
  let nprocs = s.Scenario.nprocs in
  let interesting = ref [] in
  let clean = ref 0 in
  let k = ref lo in
  while !k < hi && not (Atomic.get stop) do
    let fault, scheduler = schedule cfg ~nprocs !k in
    let adversary =
      Explore.fault_adversary (scheduler ()) fault.Explore.faults
    in
    (match
       Env.with_rollback env (fun () ->
           Explore.judge ~budget:cfg.budget
             ~monitors:(s.Scenario.monitors ())
             ~env ~adversary progs)
     with
    | Explore.Clean -> incr clean
    | v -> interesting := (!k, v) :: !interesting);
    incr k
  done;
  (List.rev !interesting, !clean, !k - lo)

(* A batch is dealt out in chunks of this many schedules, claimed one at
   a time by [Par.run]'s domains. Schedules differ wildly in cost — a
   blocked one spins to the step budget where a clean one takes tens of
   steps — and the blocked ones cluster: small chunks spread a cluster
   over every domain. *)
let chunk = 16

(* A SIGTERM can stop chunks at different points; only the longest
   contiguous prefix is durably "executed" — the resume index must never
   skip an unexecuted schedule. *)
let rec durable_next ~lo = function
  | [] -> lo
  | (a, b, ran) :: rest ->
      if ran = b - a then durable_next ~lo:b rest else a + ran

(* ------------------------------------------------------------------ *)
(* Findings → corpus records                                           *)
(* ------------------------------------------------------------------ *)

(* A deadlock is filed as its schedule. A violation is filed as
   {!Explore.finding} files a sweep's: re-run traced, shrunk through the
   standard delta-debugger (the soak's own scheduler plus round-robin as
   collapse target) and serialized as a replay artifact — [asmsim
   replay] replays soak artifacts unchanged. Shrinking is also what
   makes corpus dedup bite: many random schedules reduce to the same
   minimal one. *)
let finding_record cfg (s : Scenario.t) k verdict =
  let fault, scheduler = schedule cfg ~nprocs:s.Scenario.nprocs k in
  let meta = Scenario.sweep_meta s in
  let finding ~meta payload =
    Some (Corpus.Record.make ~kind:Corpus.Record.Finding ~meta ~payload)
  in
  match verdict with
  | Explore.Clean -> None
  | Explore.Deadlocked ->
      finding
        ~meta:(("verdict", "deadlock") :: meta)
        (Format.asprintf "deadlock %a@." Explore.pp_fault_schedule fault)
  | Explore.Violating _ ->
      let f =
        Explore.finding ~budget:cfg.budget ~make:s.Scenario.make
          ~monitors:s.Scenario.monitors
          ~schedulers:
            [
              (fault.Explore.scheduler, scheduler);
              ("round-robin", fun () -> Adversary.round_robin ());
            ]
          ~meta fault
      in
      finding
        ~meta:
          (("verdict", "violation")
          :: ("monitor", f.Explore.violation.Monitor.monitor)
          :: meta)
        f.Explore.replay

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let state_record cfg (s : Scenario.t) ~next =
  Corpus.Record.make ~kind:Corpus.Record.State
    ~meta:(("seed", string_of_int cfg.seed) :: Scenario.sweep_meta s)
    ~payload:(Printf.sprintf "next %d\n" next)

let checkpoint_next cfg (s : Scenario.t) store =
  Corpus.Store.fold store ~init:0 ~f:(fun acc ~digest:_ r ->
      if
        r.Corpus.Record.kind = Corpus.Record.State
        && Corpus.Record.meta_find r "scenario" = Some s.Scenario.name
        && Corpus.Record.meta_find r "seed" = Some (string_of_int cfg.seed)
      then
        match r.Corpus.Record.payload with
        | p -> (
            match String.split_on_char ' ' (String.trim p) with
            | [ "next"; n ] -> (
                match int_of_string_opt n with
                | Some n -> max acc n
                | None -> acc)
            | _ -> acc)
      else acc)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let run cfg ~corpus_dir (s : Scenario.t) =
  if not s.Scenario.explorable then
    Error
      (Printf.sprintf
         "scenario %s is not explorable (program state outside the \
          environment); the soak driver cannot reuse its arena"
         s.Scenario.name)
  else if cfg.batch < 1 then Error "batch must be at least 1"
  else if cfg.jobs < 1 then Error "jobs must be at least 1"
  else
    match Corpus.Store.open_ ~log:cfg.log ?chaos:cfg.chaos corpus_dir with
    | Error m -> Error m
    | Ok store ->
        let stop = Atomic.make false in
        let old_handler =
          Sys.signal Sys.sigterm
            (Sys.Signal_handle (fun _ -> Atomic.set stop true))
        in
        Fun.protect
          ~finally:(fun () ->
            Sys.set_signal Sys.sigterm old_handler;
            Corpus.Store.close store)
          (fun () ->
            let first =
              if cfg.resume then checkpoint_next cfg s store else 0
            in
            if cfg.resume && first > 0 then
              logf cfg "resuming at schedule %d" first;
            let deadline =
              Option.map (fun d -> Unix.gettimeofday () +. d) cfg.duration
            in
            let executed = ref 0 in
            let clean = ref 0 in
            let deadlocks = ref 0 in
            let new_findings = ref [] in
            let dups = ref 0 in
            let batches = ref 0 in
            let baseline_heap = ref 0 in
            let peak_heap = ref 0 in
            let next = ref first in
            let stop_reason = ref `Schedules in
            let out_of_budget () =
              (match cfg.schedules with
              | Some n -> !executed >= n
              | None -> false)
              ||
              match cfg.until with Some u -> !next >= u | None -> false
            in
            let past_deadline () =
              match deadline with
              | Some d when Unix.gettimeofday () >= d ->
                  stop_reason := `Duration;
                  true
              | _ -> false
            in
            let record_finding k v =
              (match v with Explore.Deadlocked -> incr deadlocks | _ -> ());
              match finding_record cfg s k v with
              | None -> ()
              | Some r -> (
                  match Corpus.Store.add store r with
                  | `Added d ->
                      bump cfg "soak.findings.new";
                      logf cfg "schedule %d: new finding %s" k d;
                      new_findings := d :: !new_findings
                  | `Duplicate _ ->
                      bump cfg "soak.findings.dup";
                      incr dups)
            in
            while
              (not (Atomic.get stop))
              && (not (out_of_budget ()))
              && not (past_deadline ())
            do
              let size =
                match cfg.schedules with
                | None -> cfg.batch
                | Some n -> min cfg.batch (n - !executed)
              in
              let size =
                (* [until] is an absolute index: a resume after a crash
                   runs exactly up to it, so two corpora soaked to the
                   same index hold the same findings — crash or not. *)
                match cfg.until with
                | None -> size
                | Some u -> min size (u - !next)
              in
              let lo = !next and hi = !next + size in
              let bounds c =
                (lo + (c * chunk), min hi (lo + ((c + 1) * chunk)))
              in
              (* No [skip]: every slot is filled. *)
              let chunks =
                Par.run ~jobs:cfg.jobs
                  ~tasks:((size + chunk - 1) / chunk)
                  (fun c ->
                    let a, b = bounds c in
                    (a, b, run_chunk cfg s ~stop ~lo:a ~hi:b))
                |> Array.to_list |> List.map Option.get
              in
              (* Chunks merge in chunk order, which is index order, so the
                 outcome does not depend on the job count. Work past a
                 gap in the durable prefix is not wasted: its findings
                 dedup when a resume runs it again. *)
              let next' =
                durable_next ~lo
                  (List.map (fun (a, b, (_, _, ran)) -> (a, b, ran)) chunks)
              in
              let ran = next' - lo in
              List.iter
                (fun (_, _, (interesting, cl, _)) ->
                  clean := !clean + cl;
                  List.iter (fun (k, v) -> record_finding k v) interesting)
                chunks;
              executed := !executed + ran;
              next := next';
              bump cfg "soak.batches";
              Metrics.record cfg.metrics "soak.schedules" !executed;
              incr batches;
              (* Cement the batch, then checkpoint where to resume:
                 losing the checkpoint record costs only re-running an
                 already-deduplicated batch. *)
              ignore (Corpus.Store.add store (state_record cfg s ~next:!next));
              Corpus.Store.cement store;
              let heap = (Gc.quick_stat ()).Gc.heap_words in
              if !batches = 1 then baseline_heap := heap;
              peak_heap := max !peak_heap heap;
              logf cfg
                "batch %d: %d schedule(s), %d finding(s) new, %d dup, %d \
                 clean, heap %d words"
                !batches ran
                (List.length !new_findings)
                !dups !clean heap
            done;
            if Atomic.get stop then stop_reason := `Sigterm;
            Ok
              {
                o_executed = !executed;
                o_first_index = first;
                o_next_index = !next;
                o_clean = !clean;
                o_deadlocks = !deadlocks;
                o_new_findings = List.rev !new_findings;
                o_dup_findings = !dups;
                o_batches = !batches;
                o_heap_growth_words =
                  max 0 (!peak_heap - !baseline_heap);
                o_corpus_records = Corpus.Store.count store;
                o_stop = !stop_reason;
              })
