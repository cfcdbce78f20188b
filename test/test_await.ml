(* Parked spins against their unrolled form, and the store version they
   park on.

   [to_steps] rewrites every [Prog.Await] into the [Step] it
   abbreviates — a step that loops back to the same spin on [None] — so
   nothing in the rewritten program can park. Each program is run both
   ways through a traced, metered [Exec.run] under the same adversary:
   the results, the replay and trace bytes and the metrics snapshots
   must be equal, or both runs must raise the same violation (monitor,
   step, pid, message) with the same replay.

   The grid is every registry scenario and shipped DSL twin that
   reaches an [Await] × the default schedulers × one fault at each of
   the first six ops of each process, on each of the four fault tiers. The hand cases aim at the
   edges of parking: a Byzantine fault on a parked pid, a value that
   poisons a parked predicate, a crash-recovery restart of a parked pid,
   a write by another pid that un-parks, and spins over ops a pid must
   never park on ([Ts], [Queue_deq]). *)

open Svm

let check = Alcotest.check

(* Every [Await] rewritten lazily, as the program runs. [awaits] counts
   the nodes met. *)
let rec to_steps : type a. int ref -> a Prog.t -> a Prog.t =
 fun awaits p ->
  match p with
  | Prog.Done v -> Prog.Done v
  | Prog.Step (op, k) -> Prog.Step (op, fun r -> to_steps awaits (k r))
  | Prog.Await (op, pred) ->
      incr awaits;
      Prog.Step
        ( op,
          fun r ->
            to_steps awaits (match pred r with Some next -> next | None -> p) )

let ints l = String.concat "," (List.map string_of_int l)

(* One run: the bytes that must not depend on parking, and the
   outcomes (decided values included) for a structural comparison. *)
let run ~budget ~monitors ~adversary ~env progs =
  let metrics = Metrics.create ~wall_clock:false () in
  let text, outcomes =
    match
      Exec.run ~budget ~record_trace:true ~monitors ~metrics ~env ~adversary
        progs
    with
    | r ->
        let trace = Option.get r.Exec.trace in
        ( Printf.sprintf
            "outcomes=%s steps=%d ops=[%s] crashed=[%s] stuck=[%s] \
             restarts=[%s]\n\
             %s\n\
             %s"
            (String.concat ","
               (Array.to_list (Array.map Exec.outcome_name r.Exec.outcomes)))
            r.Exec.total_steps
            (ints (Array.to_list r.Exec.op_counts))
            (ints r.Exec.crashed) (ints r.Exec.stuck) (ints r.Exec.restarts)
            (Trace.to_replay trace)
            (Format.asprintf "%a" Trace.pp trace),
          Some r.Exec.outcomes )
    | exception Monitor.Violation v ->
        ( Printf.sprintf "violation %s@%d pid=%d %s\n%s" v.Monitor.monitor
            v.Monitor.step v.Monitor.pid v.Monitor.message
            (Trace.to_replay (Option.get v.Monitor.trace)),
          None )
    | exception Adversary.Deadlock -> ("deadlock", None)
  in
  (text ^ "\n--- metrics\n" ^ Metrics.snapshot_string metrics, outcomes)

(* Native and unrolled runs of one system under one adversary; returns
   how many [Await] nodes the unrolled run met. *)
let differential ~label ?(budget = 3_000) ?(monitors = fun () -> []) ~make
    ~adversary () =
  let env, progs = make () in
  let native_text, native_outcomes =
    run ~budget ~monitors:(monitors ()) ~adversary:(adversary ()) ~env progs
  in
  let awaits = ref 0 in
  let env, progs = make () in
  let text, outcomes =
    run ~budget ~monitors:(monitors ()) ~adversary:(adversary ()) ~env
      (Array.map (to_steps awaits) progs)
  in
  check Alcotest.string label text native_text;
  check Alcotest.bool (label ^ ": same decided values") true
    (outcomes = native_outcomes);
  !awaits

(* ------------------------------------------------------------------ *)
(* The registry grid                                                    *)
(* ------------------------------------------------------------------ *)

let tiers =
  Adversary.[ Crash_stop; Omission; Crash_recovery; Byzantine ]

let faulted scheduler faults () =
  Adversary.with_faults (scheduler ())
    (List.map
       (fun { Explore.victim; op; kind } ->
         {
           Adversary.kind;
           trigger = Adversary.Crash_at_local { pid = victim; step = op };
         })
       faults)

(* Every cell of one tier's sweep grid, both ways. *)
let grid (s : Experiments.Scenario.t) kind =
  let make = s.Experiments.Scenario.make in
  let monitors = s.Experiments.Scenario.monitors in
  let plan = Explore.sweep_plan ~kinds:[ kind ] ~make ~monitors () in
  let schedulers =
    Explore.default_schedulers ~nprocs:s.Experiments.Scenario.nprocs
  in
  let awaits = ref 0 in
  for i = 0 to Explore.sweep_cells plan - 1 do
    let sched = Explore.sweep_cell_schedule plan i in
    let label =
      Format.asprintf "%s %a" s.Experiments.Scenario.name
        Explore.pp_fault_schedule sched
    in
    awaits :=
      !awaits
      + differential ~label ~monitors ~make
          ~adversary:
            (faulted
               (List.assoc sched.Explore.scheduler schedulers)
               sched.Explore.faults)
          ()
  done;
  !awaits

(* The builtin scenarios and the shipped DSL twins (compiled programs
   reach [Await] through the objects' [decide]). *)
let scenarios () =
  let twins =
    Sys.readdir "../examples" |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".sdl")
    |> List.map (fun f ->
           let path = Filename.concat "../examples" f in
           match
             Experiments.Scenario.of_source ~path
               (In_channel.with_open_bin path In_channel.input_all)
           with
           | Ok s -> (f, s)
           | Error m -> Alcotest.fail m)
  in
  List.map
    (fun (s : Experiments.Scenario.t) -> (s.Experiments.Scenario.name, s))
    (Experiments.Scenario.all ())
  @ twins

(* Whether a scenario's programs reach an [Await] in a fault-free run.
   The BG simulations do not: their simulated threads step through
   [Core.Pool], which hands each try to the scheduler as a plain [Step]
   so the simulator can switch threads between tries. *)
let reaches_await (label, (s : Experiments.Scenario.t)) =
  differential ~label:(label ^ " fault-free")
    ~monitors:s.Experiments.Scenario.monitors ~make:s.Experiments.Scenario.make
    ~adversary:Adversary.round_robin ()
  > 0

let registry_grid () =
  let awaiting = List.filter reaches_await (scenarios ()) in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " reaches an Await") true
        (List.mem_assoc n awaiting))
    [
      "safe_agreement";
      "safe_agreement_no_cancel";
      "x_safe_agreement";
      "x_safe_agreement_first_subset";
      "x_safe_agreement.sdl";
      "safe_agreement_no_cancel.sdl";
      "x_safe_agreement_first_subset.sdl";
    ];
  List.iter (fun (_, s) -> List.iter (fun kind -> ignore (grid s kind)) tiers)
    awaiting

(* ------------------------------------------------------------------ *)
(* Hand cases                                                           *)
(* ------------------------------------------------------------------ *)

let pair_c = Codec.pair Codec.int Codec.int

(* pid 0 writes a register, then spins on the snapshot until pid 1's
   entry reads (7, 7) — a restart sends it back to the write; pid 1
   yields [delay] times first, then writes it; pid 2 keeps writing its
   own entry — version bumps that change nothing pid 0 waits for. *)
let waiter ~delay () =
  let env = Env.create ~nprocs:3 ~x:1 () in
  let spin =
    Prog.bind (Prog.reg_write Codec.int "r" [] 0) (fun () ->
        Prog.snap_scan_until pair_c "s" [] (fun a ->
            match a.(1) with Some (7, 7) -> Some 1 | Some _ | None -> None))
  in
  let writer =
    let open Prog.Syntax in
    let rec wait i =
      if i = 0 then Prog.return ()
      else
        let* () = Prog.yield in
        wait (i - 1)
    in
    let* () = wait delay in
    let* () = Prog.snap_set pair_c "s" [] (7, 7) in
    Prog.return 2
  in
  let churn =
    Prog.loop
      (fun i ->
        let open Prog.Syntax in
        let* () = Prog.snap_set pair_c "s" [] (i, i) in
        Prog.return (if i >= 20 then `Stop 3 else `Again (i + 1)))
      0
  in
  (env, [| spin; writer; churn |])

let at kind pid step = { Explore.victim = pid; op = step; kind }

let hand ~label ?budget make faults =
  List.iter
    (fun (sched, scheduler) ->
      ignore
        (differential ~label:(label ^ " / " ^ sched) ?budget ~make
           ~adversary:(faulted scheduler faults) ()))
    (Explore.default_schedulers ~nprocs:3)

let write_unparks () =
  hand ~label:"a write by another pid un-parks" (waiter ~delay:40) []

let byzantine_on_parked () =
  hand ~label:"a Byzantine fault on a parked pid" (waiter ~delay:40)
    [ at Adversary.Byzantine 0 10 ];
  (* The corrupt value is an int where pid 0 decodes a pair: the
     predicate chokes and pid 0 is poisoned, stuck. *)
  hand ~label:"a Byzantine value poisons a parked predicate"
    (waiter ~delay:40)
    [ at Adversary.Byzantine 1 40 ]

let restart_parked () =
  hand ~label:"a crash-recovery restart of a parked pid" (waiter ~delay:40)
    [ at Adversary.Crash_recovery 0 12 ];
  hand ~label:"a restart of the writer" (waiter ~delay:40)
    [ at Adversary.Crash_recovery 1 41 ]

(* Spins over ops outside the [Await] contract: they run, never park. *)
let never_parks () =
  let ts_spin () =
    let env = Env.create ~nprocs:3 ~x:2 () in
    let spin pid =
      Prog.Await
        ( Op.Ts ("t", []),
          fun won -> if won || pid = 2 then Some (Prog.return pid) else None )
    in
    (env, Array.init 3 spin)
  in
  hand ~label:"a spin over test&set" ~budget:200 ts_spin [];
  let deq_spin () =
    let env = Env.create ~nprocs:3 ~x:2 () in
    let open Prog.Syntax in
    let consumer =
      Prog.Await
        ( Op.Queue_deq ("q", []),
          function
          | Some v when Codec.int.Codec.prj v = 3 -> Some (Prog.return 3)
          | Some _ | None -> None )
    in
    let producer k =
      let* () = Prog.yield in
      let* () = Prog.queue_enq Codec.int "q" [] k in
      let* () = Prog.queue_enq Codec.int "q" [] (k + 2) in
      Prog.return k
    in
    (env, [| consumer; producer 1; producer 2 |])
  in
  hand ~label:"a spin over dequeue" ~budget:200 deq_spin [];
  let reg_spin () =
    let env = Env.create ~nprocs:3 ~x:1 () in
    let open Prog.Syntax in
    let reader =
      Prog.Await
        ( Op.Reg_read ("r", []),
          function
          | Some v when Codec.int.Codec.prj v >= 5 -> Some (Prog.return 0)
          | Some _ | None -> None )
    in
    let writer pid =
      Prog.loop
        (fun i ->
          let* () = Prog.reg_write Codec.int "r" [] i in
          Prog.return (if i >= 5 then `Stop pid else `Again (i + 1)))
        pid
    in
    (env, [| reader; writer 1; writer 2 |])
  in
  hand ~label:"a spin over a register" reg_spin []

(* ------------------------------------------------------------------ *)
(* Env.version                                                          *)
(* ------------------------------------------------------------------ *)

let env_version () =
  let env = Env.create ~nprocs:3 ~x:2 ~allow_kset:true ~allow_cas:true () in
  Env.set_oracle env "omega" (fun ~pid:_ ~query -> Codec.int.Codec.inj query);
  let i = Codec.int.Codec.inj in
  let moves label op =
    let v = Env.version env in
    ignore (Env.apply env ~pid:0 op);
    check Alcotest.bool (label ^ " moves the version") true
      (Env.version env > v)
  in
  let stays label op =
    let v = Env.version env in
    ignore (Env.apply env ~pid:0 op);
    check Alcotest.int (label ^ " leaves the version") v (Env.version env)
  in
  moves "a read that creates its register" (Op.Reg_read ("r", []));
  stays "a register read" (Op.Reg_read ("r", []));
  moves "a register write" (Op.Reg_write ("r", [], i 1));
  stays "a register read after a write" (Op.Reg_read ("r", []));
  moves "a scan that creates its snapshot" (Op.Snap_scan ("s", []));
  stays "a snapshot scan" (Op.Snap_scan ("s", []));
  moves "a snapshot write" (Op.Snap_set ("s", [], i 1));
  moves "a won test&set" (Op.Ts ("t", []));
  stays "a test&set of a won flag" (Op.Ts ("t", []));
  moves "a first consensus propose" (Op.Cons_propose ("c", [], i 1));
  stays "a repeated propose by the same pid" (Op.Cons_propose ("c", [], i 2));
  moves "a k-set propose" (Op.Kset_propose ("k", [ 2 ], i 1));
  moves "an enqueue" (Op.Queue_enq ("q", [], i 1));
  moves "a non-empty dequeue" (Op.Queue_deq ("q", []));
  stays "an empty dequeue" (Op.Queue_deq ("q", []));
  moves "a successful compare&swap"
    (Op.Cas ("r", [], Some (i 1), i 2));
  stays "a failed compare&swap" (Op.Cas ("r", [], Some (i 1), i 3));
  moves "an oracle query" (Op.Oracle_query ("omega", []));
  stays "a yield" Op.Yield;
  Env.enable_journal env;
  let cp = Env.checkpoint env in
  let v = Env.version env in
  Env.rollback env cp;
  check Alcotest.bool "a rollback moves the version" true (Env.version env > v);
  let v = Env.version env in
  Env.preload_queue env "pq" [] [ i 1 ];
  check Alcotest.bool "a preloaded queue moves the version" true
    (Env.version env > v)

let suite =
  [
    ( "await",
      [
        Alcotest.test_case "registry grid: parked = unrolled, four tiers"
          `Quick registry_grid;
        Alcotest.test_case "a write by another pid un-parks" `Quick
          write_unparks;
        Alcotest.test_case "Byzantine faults around a parked pid" `Quick
          byzantine_on_parked;
        Alcotest.test_case "restarts around a parked pid" `Quick
          restart_parked;
        Alcotest.test_case "test&set, dequeue and register spins" `Quick
          never_parks;
      ] );
    ( "env-version",
      [ Alcotest.test_case "moves on every mutation" `Quick env_version ] );
  ]
