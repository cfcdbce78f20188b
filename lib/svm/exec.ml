type 'a outcome = Decided of 'a | Crashed | Blocked | Stuck

type 'a result = {
  outcomes : 'a outcome array;
  op_counts : int array;
  total_steps : int;
  crashed : int list;
  stuck : int list;
  restarts : int list;
  trace : Trace.t option;
}

type 'a state = Running of 'a Prog.t | Finished of 'a outcome

let next_op_info (p : 'a Prog.t) =
  match p with
  | Prog.Done _ -> None
  | Prog.Step (op, _) -> Op.info op
  | Prog.Await (op, _) -> Op.info op

(* The ops an [Await] parks on: pure reads, whose result is a function
   of the store alone (the contract of {!Prog.Await}). *)
let parkable (type r) (op : r Op.t) =
  match op with
  | Op.Reg_read _ | Op.Snap_scan _ -> true
  | Op.Reg_write _ | Op.Snap_set _ | Op.Ts _ | Op.Cons_propose _
  | Op.Kset_propose _ | Op.Queue_enq _ | Op.Queue_deq _ | Op.Cas _
  | Op.Oracle_query _ | Op.Yield ->
      false

let outcome_name = function
  | Decided _ -> "decided"
  | Crashed -> "crashed"
  | Blocked -> "blocked"
  | Stuck -> "stuck"

(* Per-object telemetry accumulated during one run when a metrics
   registry is present: access count and the distinct pids seen per
   instance. Flushed into registry counters/gauges at the end of the
   run, so the per-op cost is one hashtable upsert. *)
type obj_stat = { mutable ops : int; mutable pids : int list }

(* Counter handles for the per-op telemetry, resolved once per run and
   per slot on first use: the hot path then neither builds a name nor
   hashes one, and a registry still gains only the counters a run
   touches. Op slots are the [Op.kind]s in [op_kinds] order ([op_slot]),
   then yield and corrupted. *)
let op_kinds =
  Op.[| Register; Snapshot; Test_and_set; Consensus; Kset; Queue; Oracle |]

let op_slot (k : Op.kind) =
  match k with
  | Register -> 0
  | Snapshot -> 1
  | Test_and_set -> 2
  | Consensus -> 3
  | Kset -> 4
  | Queue -> 5
  | Oracle -> 6

let yield_slot = Array.length op_kinds
let corrupted_slot = yield_slot + 1

let op_counter_names =
  Array.append
    (Array.map (fun k -> "op." ^ Op.kind_name k) op_kinds)
    [| "op.yield"; "op.corrupted" |]

let fault_slot (k : Adversary.fault_kind) =
  match k with
  | Crash_stop -> 0
  | Omission -> 1
  | Crash_recovery -> 2
  | Byzantine -> 3

let fault_counter_names =
  Array.map
    (fun k -> "fault." ^ Adversary.fault_kind_name k)
    Adversary.[| Crash_stop; Omission; Crash_recovery; Byzantine |]

type telemetry = {
  registry : Metrics.t;
  objs : (Op.fam * Op.key, obj_stat) Hashtbl.t;
  scheds : int array;
  op_counters : Metrics.counter option array;
  fault_counters : Metrics.counter option array;
}

let slot_counter registry counters names i =
  match counters.(i) with
  | Some c -> c
  | None ->
      let c = Metrics.counter registry names.(i) in
      counters.(i) <- Some c;
      c

let instance_label (info : Op.info) =
  Printf.sprintf "%s[%s]" info.Op.fam
    (String.concat ";" (List.map string_of_int info.Op.key))

let run ?(budget = 2_000_000) ?(record_trace = false) ?(monitors = []) ?metrics
    ~env ~adversary progs =
  let n = Array.length progs in
  if n <> Env.nprocs env then
    invalid_arg
      (Printf.sprintf "Exec.run: %d programs for an environment of %d processes"
         n (Env.nprocs env));
  let states = Array.map (fun p -> Running p) progs in
  let op_counts = Array.make n 0 in
  let crashed = ref [] in
  let stuck = ref [] in
  let restarts = ref [] in
  let byz_active = ref false in
  let trace = if record_trace then Some (Trace.create ()) else None in
  (* Telemetry: all per-op state lives behind the [metrics] option — the
     metrics-off path allocates nothing per op (guarded by the same
     match that the trace recorder uses). *)
  let tele =
    match metrics with
    | None -> None
    | Some registry ->
        Some
          {
            registry;
            objs = Hashtbl.create 32;
            scheds = Array.make n 0;
            op_counters = Array.make (Array.length op_counter_names) None;
            fault_counters = Array.make (Array.length fault_counter_names) None;
          }
  in
  let note_op pid info corrupted =
    match tele with
    | None -> ()
    | Some t -> (
        let slot =
          match info with None -> yield_slot | Some i -> op_slot i.Op.kind
        in
        Metrics.incr
          (slot_counter t.registry t.op_counters op_counter_names slot);
        (match info with
        | None -> ()
        | Some i ->
            let s =
              match Hashtbl.find_opt t.objs (i.Op.fam, i.Op.key) with
              | Some s -> s
              | None ->
                  let s = { ops = 0; pids = [] } in
                  Hashtbl.add t.objs (i.Op.fam, i.Op.key) s;
                  s
            in
            s.ops <- s.ops + 1;
            if not (List.mem pid s.pids) then s.pids <- pid :: s.pids);
        if corrupted then
          Metrics.incr
            (slot_counter t.registry t.op_counters op_counter_names
               corrupted_slot))
  in
  let note_sched pid =
    match tele with
    | None -> ()
    | Some t -> t.scheds.(pid) <- t.scheds.(pid) + 1
  in
  let note_fault kind =
    match tele with
    | None -> ()
    | Some t ->
        Metrics.incr
          (slot_counter t.registry t.fault_counters fault_counter_names
             (fault_slot kind))
  in
  let record step pid info =
    match trace with
    | None -> ()
    | Some t -> Trace.add t { Trace.step; pid; info }
  in
  let decided d =
    match trace with None -> () | Some t -> Trace.record_decision t d
  in
  (* The hot schedule decision is built only when a trace records it. *)
  let scheduled pid = if record_trace then decided (Trace.Sched pid) in
  let rec check_all pid step event = function
    | [] -> ()
    | m :: rest -> (
        match Monitor.check m event with
        | Ok () -> check_all pid step event rest
        | Error message ->
            raise
              (Monitor.Violation
                 { Monitor.monitor = Monitor.name m; message; step; pid; trace }))
  in
  let monitor pid step event = check_all pid step event monitors in
  (* The runnable pids in index order. Only a process reaching
     [Finished] changes the set, so the list is rebuilt there and not
     on every step. *)
  let runnable () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match states.(i) with
      | Running _ -> acc := i :: !acc
      | Finished _ -> ()
    done;
    !acc
  in
  let live = ref (runnable ()) in
  let finish pid outcome =
    states.(pid) <- Finished outcome;
    live := runnable ()
  in
  let step = ref 0 in
  let continue = ref true in
  (* Flush the accumulated telemetry into the registry. Called on normal
     completion and before a monitor violation propagates, so a
     violating replay still snapshots its partial run (deterministically:
     the same replay violates at the same step with the same tallies). *)
  let flush_metrics () =
    match tele with
    | None -> ()
    | Some { registry = m; objs; scheds; _ } ->
        Metrics.incr (Metrics.counter m "run.count");
        Metrics.observe (Metrics.histogram m "run.steps") !step;
        let ops_h = Metrics.histogram m "proc.ops" in
        let steps_h = Metrics.histogram m "proc.steps" in
        for pid = 0 to n - 1 do
          Metrics.observe ops_h op_counts.(pid);
          Metrics.observe steps_h scheds.(pid)
        done;
        Array.iter
          (fun s ->
            let o = match s with Running _ -> Blocked | Finished o -> o in
            Metrics.incr (Metrics.counter m ("outcome." ^ outcome_name o)))
          states;
        (* Deterministic flush order: instances sorted by label. *)
        Hashtbl.fold
          (fun (fam, key) s acc ->
            (instance_label { Op.kind = Op.Register; fam; key }, s) :: acc)
          objs []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (label, s) ->
               Metrics.incr ~by:s.ops (Metrics.counter m ("obj.ops." ^ label));
               Metrics.set_max
                 (Metrics.gauge m ("obj.pids." ^ label))
                 (List.length s.pids))
  in
  (* Advance [pid] past one executed operation. A continuation may choke
     decoding a Byzantine value planted earlier ([Codec.Type_error]); the
     poisoned process halts — stuck, deterministically — rather than
     aborting the run. Only tolerated once corruption happened: on
     fault-free runs a decode error is a real bug and propagates. *)
  let advance pid k r info =
    match k r with
    | next -> states.(pid) <- Running next
    | exception Codec.Type_error _ when !byz_active ->
        finish pid Stuck;
        stuck := pid :: !stuck;
        monitor pid !step (Monitor.Stalled { pid; step = !step; info })
  in
  (* Parked processes. A pid whose [Await] try failed on a pure read
     parks at the store's {!Env.version}: until the version moves, a
     new try would read the same value and fail the same pure predicate
     again. [parked.(pid)] is that version, -1 when the pid is not
     parked; [parked_info] caches the op's info. Any step the pid
     really takes un-parks it, and so does a restart. *)
  let parked = Array.make n (-1) in
  let parked_info = Array.make n None in
  (try
     while !continue && !step < budget do
    match !live with
    | [] -> continue := false
    | live ->
        let pid = Adversary.pick adversary ~runnable:live ~global_step:!step in
        note_sched pid;
        (match states.(pid) with
        | Finished _ ->
            invalid_arg "Exec.run: adversary picked a non-runnable process"
        | Running prog -> (
            let park = parked.(pid) in
            let next =
              if park >= 0 then parked_info.(pid) else next_op_info prog
            in
            let fault =
              Adversary.fault_now adversary ~pid ~local_step:op_counts.(pid)
                ~global_step:!step ~next
            in
            match fault with
            | None when park >= 0 && park = Env.version env ->
                (* A parked try: the read would return what the last try
                   read and the predicate would fail again, so only
                   those two are skipped. Everything else a step does
                   happens, in the same order. *)
                note_op pid next false;
                scheduled pid;
                op_counts.(pid) <- op_counts.(pid) + 1;
                record !step pid next;
                monitor pid !step
                  (Monitor.Op_applied { pid; step = !step; info = next })
            | Some Adversary.Crash_stop ->
                finish pid Crashed;
                note_fault Adversary.Crash_stop;
                crashed := pid :: !crashed;
                decided (Trace.Crash pid);
                record !step pid None;
                monitor pid !step (Monitor.Crashed { pid; step = !step })
            | Some Adversary.Omission ->
                finish pid Stuck;
                note_fault Adversary.Omission;
                stuck := pid :: !stuck;
                decided (Trace.Omit pid);
                record !step pid None;
                monitor pid !step
                  (Monitor.Stalled { pid; step = !step; info = next })
            | Some Adversary.Crash_recovery ->
                (* Local [Prog] state is lost; shared memory survives.
                   The pending operation does not execute. *)
                states.(pid) <- Running progs.(pid);
                parked.(pid) <- -1;
                note_fault Adversary.Crash_recovery;
                restarts := pid :: !restarts;
                decided (Trace.Restart pid);
                record !step pid None;
                monitor pid !step (Monitor.Restarted { pid; step = !step })
            | (Some Adversary.Byzantine | None) as fault -> (
                if park >= 0 then parked.(pid) <- -1;
                (* A real try of an [Await] runs as the [Step] it
                   abbreviates, which comes back to this node on [None]. *)
                let unrolled =
                  match prog with
                  | Prog.Await (op, pred) ->
                      Prog.Step
                        ( op,
                          fun r ->
                            match pred r with Some p -> p | None -> prog )
                  | Prog.Done _ | Prog.Step _ -> prog
                in
                (match unrolled with
                | Prog.Done v ->
                    scheduled pid;
                    finish pid (Decided v);
                    monitor pid !step
                      (Monitor.Decided { pid; step = !step; value = v })
                | Prog.Step (op, k) -> (
                    let corrupted =
                      match fault with
                      | Some Adversary.Byzantine ->
                          Op.corrupt op
                            (Adversary.byz_value ~pid ~global_step:!step)
                      | _ -> None
                    in
                    match corrupted with
                    | Some op' ->
                        byz_active := true;
                        note_fault Adversary.Byzantine;
                        note_op pid next true;
                        decided (Trace.Byz pid);
                        let r = Env.apply env ~pid op' in
                        op_counts.(pid) <- op_counts.(pid) + 1;
                        record !step pid next;
                        monitor pid !step
                          (Monitor.Corrupted
                             { pid; step = !step; info = next });
                        advance pid k r next
                    | None ->
                        note_op pid next false;
                        scheduled pid;
                        let r = Env.apply env ~pid op in
                        op_counts.(pid) <- op_counts.(pid) + 1;
                        record !step pid next;
                        monitor pid !step
                          (Monitor.Op_applied
                             { pid; step = !step; info = next });
                        advance pid k r next)
                | Prog.Await _ -> assert false (* unrolled above *));
                (* A failed try of a pure read left the pid on the same
                   node: park it. *)
                match (prog, states.(pid)) with
                | Prog.Await (op, _), Running p when p == prog && parkable op
                  ->
                    parked.(pid) <- Env.version env;
                    parked_info.(pid) <- next
                | _ -> ())));
        incr step
     done
   with Monitor.Violation _ as e ->
     flush_metrics ();
     raise e);
  flush_metrics ();
  let outcomes =
    Array.map
      (function Running _ -> Blocked | Finished o -> o)
      states
  in
  {
    outcomes;
    op_counts;
    total_steps = !step;
    crashed = List.rev !crashed;
    stuck = List.rev !stuck;
    restarts = List.rev !restarts;
    trace;
  }

let decided r =
  Array.to_list r.outcomes
  |> List.filter_map (function
       | Decided v -> Some v
       | Crashed | Blocked | Stuck -> None)

let decided_count r = List.length (decided r)

let blocked r =
  let acc = ref [] in
  Array.iteri
    (fun i -> function
      | Blocked -> acc := i :: !acc
      | Decided _ | Crashed | Stuck -> ())
    r.outcomes;
  List.rev !acc
