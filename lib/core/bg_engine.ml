open Svm
open Svm.Prog.Syntax

exception Unsupported_op of string

type stats = {
  mutable decided_threads : (int * int) list;
  mutable max_engaged : int;
}

let new_stats () = { decided_threads = []; max_engaged = 0 }

let decided_processes stats =
  List.sort_uniq compare (List.map snd stats.decided_threads)

(* Fold engine-level counters into a run's metrics snapshot, so the
   simulator's mutex1 invariant measurement travels with the rest of the
   telemetry instead of living in a side structure. *)
let fold_metrics m stats =
  Metrics.set_max (Metrics.gauge m "bg.max_engaged") stats.max_engaged;
  Metrics.incr
    ~by:(List.length stats.decided_threads)
    (Metrics.counter m "bg.decided_threads");
  Metrics.incr
    ~by:(List.length (decided_processes stats))
    (Metrics.counter m "bg.decided_processes")

let record_decision stats ~sim ~thread =
  match stats with
  | None -> ()
  | Some s -> s.decided_threads <- (sim, thread) :: s.decided_threads

(* ------------------------------------------------------------------ *)
(* Value representations                                               *)
(* ------------------------------------------------------------------ *)

(* A simulated process writes to its own component of possibly several
   snapshot families; its "virtual memory cell" is therefore a finite map
   from (family, key) to the last value written there. *)
type instance = Op.fam * Op.key

let vmap_codec : (((string * int list) * Univ.t) list) Codec.t =
  Codec.assoc Codec.any

(* MEM[i] (Figure 2): the simulator's local copy of the whole simulated
   memory — for each simulated process, its virtual cell plus the
   sequence number of its last simulated write. *)
let mem_cell_codec = Codec.arr (Codec.option (Codec.pair vmap_codec Codec.int))

(* Values agreed upon for simulated snapshots: a full view of the
   simulated memory (one virtual cell per simulated process). *)
let view_codec = Codec.arr (Codec.option vmap_codec)

(* ------------------------------------------------------------------ *)
(* Per-simulator state                                                 *)
(* ------------------------------------------------------------------ *)

type sim_state = {
  me : int; (* simulator pid in the target model *)
  n_sim : int; (* number of simulated processes *)
  mem : ((instance * Univ.t) list * int) option array; (* memi *)
  snap_sn : int array; (* per simulated process; 0 reserved for inputs *)
  mutex1 : int option ref; (* holder thread of the propose mutex *)
  mutex1_enabled : bool; (* false only under the AB ablation experiment *)
  mutex2 : (instance, int option ref) Hashtbl.t;
      (* Figure 4's mutex2, one per simulated consensus object: it
         protects the one-shot discipline of xres[a] for that object, so
         threads of processes sharing object [a] serialize — but a thread
         blocked in a decide on a crashed object must not stall the
         simulation of processes using other objects (Lemma 1 counts at
         most x blocked processes per crash). *)
  xres : (instance, Univ.t) Hashtbl.t; (* Figure 4's xres cache *)
  snap_ag : Agreement.t; (* SAFE_AG[j, snapsn], j fixed per key *)
  cons_ag : (string, Agreement.t) Hashtbl.t; (* per simulated cons family *)
  target : Model.t;
  engaged : int ref; (* agreement proposes this simulator has in flight *)
  stats : stats option;
}

let make_state ~me ~n_sim ~target ~mutex1_enabled ~stats =
  {
    me;
    n_sim;
    mem = Array.make n_sim None;
    snap_sn = Array.make n_sim 0;
    mutex1 = ref None;
    mutex1_enabled;
    mutex2 = Hashtbl.create 16;
    xres = Hashtbl.create 16;
    snap_ag = Agreement.for_target ~fam:"SA" ~target;
    cons_ag = Hashtbl.create 8;
    target;
    engaged = ref 0;
    stats;
  }

(* Online engagement accounting around every agreement propose. With
   mutex1 the count stays at 1 — the invariant Lemma 1's crash
   accounting rests on; the AB ablation lets it grow, and [max_engaged]
   makes that visible to the experiments instead of only its downstream
   blocking symptom. *)
let engaged_propose st body =
  let open Prog.Syntax in
  st.engaged := !(st.engaged) + 1;
  (match st.stats with
  | Some s when !(st.engaged) > s.max_engaged ->
      s.max_engaged <- !(st.engaged)
  | Some _ | None -> ());
  let* r = body () in
  st.engaged := !(st.engaged) - 1;
  Prog.return r

(* Agreement objects for simulated consensus families are named after the
   simulated family, so every simulator derives the same object
   deterministically. *)
let cons_agreement st fam =
  match Hashtbl.find_opt st.cons_ag fam with
  | Some ag -> ag
  | None ->
      let ag = Agreement.for_target ~fam:("XSA:" ^ fam) ~target:st.target in
      Hashtbl.add st.cons_ag fam ag;
      ag

(* A simulator-local mutex: threads of the same simulator interleave only
   at operation boundaries, so test-and-set on a plain ref is atomic. The
   spin performs a (free) Yield so the thread scheduler can switch. *)
let with_mutex m tid body =
  let rec acquire () =
    match !m with
    | None ->
        m := Some tid;
        Prog.return ()
    | Some _ ->
        let* () = Prog.yield in
        acquire ()
  in
  let* () = acquire () in
  let* r = body () in
  m := None;
  Prog.return r

(* mutex1 guard; the ablation experiment disables it to exhibit how a
   single simulator crash can then block arbitrarily many simulated
   processes (the paper's "simple (and bright) idea", Section 3.2.3). *)
let with_mutex1 st tid body =
  if st.mutex1_enabled then with_mutex st.mutex1 tid body else body ()

(* ------------------------------------------------------------------ *)
(* Figure 2: sim_write                                                 *)
(* ------------------------------------------------------------------ *)

let sim_write st j inst v =
  let vmap, sn = match st.mem.(j) with None -> ([], 0) | Some c -> c in
  let vmap = (inst, v) :: List.remove_assoc inst vmap in
  st.mem.(j) <- Some (vmap, sn + 1);
  Prog.snap_set mem_cell_codec "MEM" [] st.mem

(* ------------------------------------------------------------------ *)
(* Figure 3: sim_snapshot (also agrees inputs, with key [j; 0])        *)
(* ------------------------------------------------------------------ *)

(* Lines 01-03 of Figure 3: snapshot MEM and, for every simulated
   process, keep the virtual cell written by the most advanced
   simulator. *)
let most_advanced_view st smi =
  let input = Array.make st.n_sim None in
  Array.iter
    (fun cell ->
      match cell with
      | None -> ()
      | Some memx ->
          Array.iteri
            (fun y entry ->
              match entry with
              | None -> ()
              | Some (vm, sn) -> (
                  match input.(y) with
                  | Some (_, sn0) when sn0 >= sn -> ()
                  | Some _ | None -> input.(y) <- Some (vm, sn)))
            memx)
    smi;
  Array.map (Option.map fst) input

let sim_snapshot st j inst =
  let* smi = Prog.snap_scan mem_cell_codec "MEM" [] in
  let view = most_advanced_view st smi in
  st.snap_sn.(j) <- st.snap_sn.(j) + 1;
  let key = [ j; st.snap_sn.(j) ] in
  let* () =
    with_mutex1 st j (fun () ->
        engaged_propose st (fun () ->
            st.snap_ag.Agreement.propose ~key ~pid:st.me
              (view_codec.Codec.inj view)))
  in
  let* agreed = st.snap_ag.Agreement.decide ~key ~pid:st.me in
  let agreed = view_codec.Codec.prj agreed in
  Prog.return
    (Array.map (fun vm -> Option.bind vm (List.assoc_opt inst)) agreed)

(* ------------------------------------------------------------------ *)
(* Figures 4 and 8: sim_x_cons_propose                                 *)
(* ------------------------------------------------------------------ *)

let mutex2_for st inst =
  match Hashtbl.find_opt st.mutex2 inst with
  | Some m -> m
  | None ->
      let m = ref None in
      Hashtbl.add st.mutex2 inst m;
      m

let sim_x_cons st j (fam, key) v =
  let inst = (fam, key) in
  with_mutex (mutex2_for st inst) j (fun () ->
      match Hashtbl.find_opt st.xres inst with
      | Some r -> Prog.return r
      | None ->
          let ag = cons_agreement st fam in
          let* () =
            with_mutex1 st j (fun () ->
                engaged_propose st (fun () ->
                    ag.Agreement.propose ~key ~pid:st.me v))
          in
          let* r = ag.Agreement.decide ~key ~pid:st.me in
          Hashtbl.replace st.xres inst r;
          Prog.return r)

(* ------------------------------------------------------------------ *)
(* The per-thread interpreter of the simulated code                    *)
(* ------------------------------------------------------------------ *)

let unsupported what =
  raise
    (Unsupported_op
       (what
      ^ ": not in the canonical operation alphabet (snapshot families, \
         consensus families, yield)"))

let rec interp st j (p : Univ.t Prog.t) : Univ.t Prog.t =
  match p with
  | Prog.Done v -> Prog.return v
  | Prog.Step (op, k) -> run_op st j op k
  | Prog.Await (op, pred) ->
      run_op st j op (fun r -> match pred r with Some next -> next | None -> p)

and run_op :
    type r. sim_state -> int -> r Op.t -> (r -> Univ.t Prog.t) -> Univ.t Prog.t
    =
 fun st j op k ->
  match op with
  | Op.Snap_set (f, key, v) ->
      let* () = sim_write st j (f, key) v in
      interp st j (k ())
  | Op.Snap_scan (f, key) ->
      let* r = sim_snapshot st j (f, key) in
      interp st j (k r)
  | Op.Cons_propose (f, key, v) ->
      let* r = sim_x_cons st j (f, key) v in
      interp st j (k r)
  | Op.Yield ->
      let* () = Prog.yield in
      interp st j (k ())
  | Op.Reg_read _ -> unsupported "register read"
  | Op.Reg_write _ -> unsupported "register write"
  | Op.Ts _ -> unsupported "test&set"
  | Op.Kset_propose _ -> unsupported "k-set propose"
  | Op.Queue_enq _ -> unsupported "queue enqueue"
  | Op.Queue_deq _ -> unsupported "queue dequeue"
  | Op.Cas _ -> unsupported "compare&swap"
  | Op.Oracle_query _ -> unsupported "failure-detector oracle"

(* Thread j of a simulator: agree on pj's input (every simulator proposes
   its own input; colorless validity allows adopting any of them), then
   interpret pj's code. *)
let thread st (source : Algorithm.t) ~my_input j =
  let key = [ j; 0 ] in
  let* () =
    with_mutex1 st j (fun () ->
        engaged_propose st (fun () ->
            st.snap_ag.Agreement.propose ~key ~pid:st.me my_input))
  in
  let* input = st.snap_ag.Agreement.decide ~key ~pid:st.me in
  interp st j (source.Algorithm.code ~pid:j ~input)

(* ------------------------------------------------------------------ *)
(* Driving the threads                                                 *)
(* ------------------------------------------------------------------ *)

let drive_colorless ?stats ~me pool =
  let rec go last =
    match Pool.round_robin_next pool ~after:last with
    | None ->
        (* Unreachable for decision tasks: a thread only finishes by
           deciding, which stops the simulator. *)
        failwith "bg_engine: every simulated process finished undecided"
    | Some tid -> (
        let* r = Pool.step pool ~tid in
        match r with
        | `Done v ->
            record_decision stats ~sim:me ~thread:tid;
            Prog.return v
        | `Stepped | `Finished -> go tid)
  in
  go (-1)

(* Exhaustive mode (used by the lemma-measuring experiments): never stop
   at the first decision; keep simulating every thread. Blocked threads
   spin forever, so the simulator typically ends Blocked at the step
   budget — the decisions it witnessed are in [stats]. If every thread
   does finish, the simulator decides the count. *)
let drive_exhaustive ?stats ~me pool =
  let rec go last =
    match Pool.round_robin_next pool ~after:last with
    | None -> Prog.return (Codec.int.Codec.inj (Pool.size pool))
    | Some tid -> (
        let* r = Pool.step pool ~tid in
        match r with
        | `Done _ ->
            record_decision stats ~sim:me ~thread:tid;
            go tid
        | `Stepped | `Finished -> go tid)
  in
  go (-1)

(* Section 5.5: before competing for a decision, finish the agreement
   propose this simulator may be engaged in, so stopping cannot block
   other simulators. mutex1 guarantees at most one thread is proposing;
   propose sections are wait-free, so stepping the holder terminates. *)
let rec finish_propose st pool =
  match !(st.mutex1) with
  | None -> Prog.return ()
  | Some holder ->
      let* _ = Pool.step pool ~tid:holder in
      finish_propose st pool

let drive_colored ?stats st pool ~decide_ts =
  let rec go last =
    match Pool.round_robin_next pool ~after:last with
    | None -> failwith "bg_engine: lost every test&set yet no processes left"
    | Some tid -> (
        let* r = Pool.step pool ~tid in
        match r with
        | `Stepped | `Finished -> go tid
        | `Done v ->
            record_decision stats ~sim:st.me ~thread:tid;
            let* () = finish_propose st pool in
            let* won =
              Shared_objects.Ts_from_cons.compete decide_ts ~key:[ tid ]
                ~pid:st.me
            in
            if won then Prog.return v else go tid)
  in
  go (-1)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let simulate ?(unchecked = false) ?(ablate_mutex1 = false) ?stats
    ~(source : Algorithm.t) ~target ~mode () =
  let src_model = source.Algorithm.model in
  if not unchecked then begin
    let ok =
      match mode with
      | `Colorless | `Exhaustive ->
          Model.colorless_simulation_ok ~source:src_model ~target
      | `Colored -> Model.colored_simulation_ok ~source:src_model ~target
    in
    if not ok then
      invalid_arg
        (Format.asprintf
           "Bg_engine.simulate: %s cannot be simulated in %s (%s mode): \
            precondition violated"
           (Model.to_string src_model) (Model.to_string target)
           (match mode with
           | `Colorless -> "colorless"
           | `Colored -> "colored"
           | `Exhaustive -> "exhaustive"))
  end;
  let mode_name =
    match mode with
    | `Colorless -> "colorless"
    | `Colored -> "colored"
    | `Exhaustive -> "exhaustive"
  in
  let name =
    Format.asprintf "bg-%s[%s -> %s](%s)" mode_name
      (Model.to_string src_model) (Model.to_string target)
      source.Algorithm.name
  in
  let n_sim = src_model.Model.n in
  let code ~pid ~input =
    let st =
      make_state ~me:pid ~n_sim ~target ~mutex1_enabled:(not ablate_mutex1)
        ~stats
    in
    let threads =
      Array.init n_sim (fun j -> thread st source ~my_input:input j)
    in
    let pool = Pool.make threads in
    match mode with
    | `Colorless -> drive_colorless ?stats ~me:pid pool
    | `Exhaustive -> drive_exhaustive ?stats ~me:pid pool
    | `Colored ->
        let decide_ts =
          Shared_objects.Ts_from_cons.make ~fam:"DECIDE_TS"
            ~participants:target.Model.n
        in
        drive_colored ?stats st pool ~decide_ts
  in
  Algorithm.make ~name ~model:target code
