open Svm
open Svm.Prog.Syntax

type origin = Builtin | Sdl_source of { source : string; path : string option }

type t = {
  name : string;
  doc : string;
  seeded_bug : bool;
  nprocs : int;
  x : int;
  make : unit -> Env.t * Univ.t Prog.t array;
  monitors : unit -> Univ.t Monitor.t list;
  explorable : bool;
  explore_steps : int;
  exhaustive_property : Univ.t Explore.run -> (unit, string) Stdlib.result;
  origin : origin;
}

(* ------------------------------------------------------------------ *)
(* Exhaustive-exploration properties (pure functions of the run record) *)
(* ------------------------------------------------------------------ *)

(* The int-coded kits are shared with compiled DSL twins: a twin's
   verdicts and artifacts are byte-identical to its builtin's. *)
let decided_ints = Sdl.Compile.decided_ints
let agreement_property = Sdl.Compile.agreement_property
let pp_int = Sdl.Compile.pp_int
let int_in = Sdl.Compile.int_in
let agreement_monitors = Sdl.Compile.agreement_monitors

let agreement_except_property ~sentinel ~lo ~hi run =
  let ds = decided_ints run in
  if List.exists (fun v -> v <> sentinel && (v < lo || v > hi)) ds then
    Error "validity: decided value outside the proposed range"
  else
    match List.filter (fun v -> v <> sentinel) ds with
    | [] -> Ok ()
    | d :: rest ->
        if List.for_all (fun v -> v = d) rest then Ok ()
        else Error "agreement: two distinct values decided"

let winners_property ~bound run =
  let wins =
    Array.to_list run.Explore.outcomes
    |> List.filter (function
         | Exec.Decided u -> (
             match Codec.bool.Codec.prj u with
             | w -> w
             | exception Codec.Type_error _ -> false)
         | Exec.Crashed | Exec.Blocked | Exec.Stuck -> false)
    |> List.length
  in
  if wins <= bound then Ok ()
  else Error (Printf.sprintf "%d processes won (bound %d)" wins bound)

(* ------------------------------------------------------------------ *)
(* Monitor kits over int-coded decisions                                *)
(* ------------------------------------------------------------------ *)

(* At most [bound] processes decide [true]. *)
let winners_monitor ~bound () =
  let wins = ref 0 in
  Monitor.make ~name:(Printf.sprintf "winners(<=%d)" bound) (function
    | Monitor.Decided { value; _ }
      when (match Codec.bool.Codec.prj value with
           | w -> w
           | exception Codec.Type_error _ -> false) ->
        incr wins;
        if !wins <= bound then Ok ()
        else Error (Printf.sprintf "%d processes won (bound %d)" !wins bound)
    | Monitor.Decided _ | Monitor.Op_applied _ | Monitor.Crashed _
    | Monitor.Stalled _ | Monitor.Restarted _ | Monitor.Corrupted _ ->
        Ok ())

(* Agreement among the processes that actually decided a value, with a
   designated sentinel meaning "aborted / rerouted" excluded: an abort
   is an explicit refusal, not a decision, so it must never count as a
   disagreement — that is the graceful-degradation contract of
   [X_safe_agreement.decide_abortable]. Byzantine deciders are excluded
   like in [decided_value_integrity]. *)
let agreement_except ~sentinel () =
  let byz : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let first = ref None in
  Monitor.make ~name:(Printf.sprintf "agreement-except(%d)" sentinel)
    (function
    | Monitor.Op_applied _ | Monitor.Crashed _ | Monitor.Stalled _
    | Monitor.Restarted _ ->
        Ok ()
    | Monitor.Corrupted { pid; _ } ->
        Hashtbl.replace byz pid ();
        Ok ()
    | Monitor.Decided { pid; value; _ } -> (
        match Codec.int.Codec.prj value with
        | exception Codec.Type_error _ -> Ok ()
        | v when v = sentinel -> Ok ()
        | _ when Hashtbl.mem byz pid -> Ok ()
        | v -> (
            match !first with
            | None ->
                first := Some (pid, v);
                Ok ()
            | Some (pid0, v0) ->
                if v0 = v then Ok ()
                else
                  Error
                    (Printf.sprintf "p%d decided %d but p%d decided %d" pid v
                       pid0 v0))))

(* ------------------------------------------------------------------ *)
(* The systems under test                                               *)
(* ------------------------------------------------------------------ *)

let safe_agreement ~ablate_no_cancel n =
  let make () =
    let env = Env.create ~nprocs:n ~x:1 () in
    let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
    let prog i =
      let* () =
        if ablate_no_cancel then
          Shared_objects.Ablations.sa_propose_no_cancel ~fam:"SA" ~key:[]
            (Codec.int.Codec.inj i)
        else
          Shared_objects.Safe_agreement.propose sa ~key:[]
            (Codec.int.Codec.inj i)
      in
      Shared_objects.Safe_agreement.decide sa ~key:[]
    in
    (env, Array.init n prog)
  in
  (make, agreement_monitors ~lo:0 ~hi:(n - 1))

let x_safe_agreement ~first_subset_only ~x n =
  let make () =
    let env = Env.create ~nprocs:n ~x () in
    let xsa =
      Shared_objects.X_safe_agreement.make ~first_subset_only ~fam:"XSA"
        ~participants:n ~x ()
    in
    let prog i =
      let* () =
        Shared_objects.X_safe_agreement.propose xsa ~key:[] ~pid:i
          (Codec.int.Codec.inj (10 + i))
      in
      Shared_objects.X_safe_agreement.decide xsa ~key:[] ~pid:i
    in
    (env, Array.init n prog)
  in
  (make, agreement_monitors ~lo:10 ~hi:(10 + n - 1))

let ts_from_cons n =
  let make () =
    let env = Env.create ~nprocs:n ~x:2 () in
    let ts = Shared_objects.Ts_from_cons.make ~fam:"TS" ~participants:n in
    let prog i =
      Prog.map Codec.bool.Codec.inj
        (Shared_objects.Ts_from_cons.compete ts ~key:[] ~pid:i)
    in
    (env, Array.init n prog)
  in
  (make, fun () -> [ winners_monitor ~bound:1 () ])

let abort_sentinel = 999

let x_safe_agreement_abortable ~x n =
  let lo = 10 and hi = 10 + n - 1 in
  let make () =
    let env = Env.create ~nprocs:n ~x () in
    let xsa =
      Shared_objects.X_safe_agreement.make ~fam:"XSA" ~participants:n ~x ()
    in
    let prog i =
      let* () =
        Shared_objects.X_safe_agreement.propose xsa ~key:[] ~pid:i
          (Codec.int.Codec.inj (10 + i))
      in
      let* r =
        (* Patience well above an owner's propose length (competition +
           full SET_LIST scan), so under a fair scheduler healthy
           instances never abort; a hung owner makes every decider
           abort within [patience] scans instead of spinning forever. *)
        Shared_objects.X_safe_agreement.decide_abortable xsa ~key:[] ~pid:i
          ~patience:60
      in
      match r with
      | `Decided v -> Prog.return v
      | `Aborted -> Prog.return (Codec.int.Codec.inj abort_sentinel)
    in
    (env, Array.init n prog)
  in
  let monitors () =
    [
      agreement_except ~sentinel:abort_sentinel ();
      Monitor.decided_value_integrity ~pp:pp_int
        ~allowed:(fun u ->
          int_in ~lo ~hi u
          ||
          match Codec.int.Codec.prj u with
          | v -> v = abort_sentinel
          | exception Codec.Type_error _ -> false)
        ();
    ]
  in
  (make, monitors)

(* BG simulations as sweepable scenarios (§3 sim_down, §4 sim_up). The
   simulator keeps its local state in refs allocated when [code] is
   applied, so the program handed to the executor is built behind a
   leading [Yield]: a crash-recovery restart re-executes the Yield and
   re-applies [code], rebuilding the simulator's local state from
   scratch — local state lost, shared memory kept, which is exactly the
   restart contract. *)
let bg_scenario ~mk_alg ~k () =
  let make () =
    let alg = mk_alg () in
    let n = Core.Algorithm.n alg in
    let env =
      Env.create ~nprocs:n ~x:alg.Core.Algorithm.model.Core.Model.x ()
    in
    let prog pid =
      let* () = Prog.yield in
      alg.Core.Algorithm.code ~pid ~input:(Codec.int.Codec.inj (10 + pid))
    in
    (env, Array.init n prog)
  in
  let monitors n () =
    [
      Monitor.k_agreement ~pp:pp_int ~k ();
      Monitor.decided_value_integrity ~pp:pp_int
        ~allowed:(int_in ~lo:10 ~hi:(10 + n - 1))
        ();
      Monitor.stall_bound ~fam_prefix:"SA" ();
      Monitor.stall_bound ~fam_prefix:"XSA:" ();
    ]
  in
  (make, monitors)

let x_compete ~x n =
  let make () =
    let env = Env.create ~nprocs:n ~x:2 () in
    let xc = Shared_objects.X_compete.make ~fam:"XC" ~participants:n ~x in
    let prog i =
      Prog.map Codec.bool.Codec.inj
        (Shared_objects.X_compete.compete xc ~key:[] ~pid:i)
    in
    (env, Array.init n prog)
  in
  (make, fun () -> [ winners_monitor ~bound:x () ])

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let scenario ~name ~doc ?(seeded_bug = false) ~nprocs ~x ~explore_steps
    ~property build =
  let make, monitors = build nprocs in
  {
    name;
    doc;
    seeded_bug;
    nprocs;
    x;
    make;
    monitors;
    explorable = true;
    explore_steps;
    exhaustive_property = property nprocs;
    origin = Builtin;
  }

let build ?nprocs name =
  let sized default = match nprocs with Some n -> n | None -> default in
  let check_min ~min n k =
    if n < min then
      Error
        (Printf.sprintf
           "scenario %s needs at least %d processes (valid nprocs: %d and \
            up; got %d)"
           name min min n)
    else Ok (k n)
  in
  match name with
  | "safe_agreement" ->
      check_min ~min:2 (sized 3) (fun n ->
          scenario ~name ~doc:"Figure 1 safe agreement: agreement + validity"
            ~nprocs:n ~x:1 ~explore_steps:12
            ~property:(fun n -> agreement_property ~lo:0 ~hi:(n - 1))
            (fun n ->
              let make, ms = safe_agreement ~ablate_no_cancel:false n in
              (make, fun () -> ms ())))
  | "safe_agreement_no_cancel" ->
      check_min ~min:2 (sized 2) (fun n ->
          scenario ~name
            ~doc:
              "SEEDED BUG: safe agreement stabilizing unconditionally — \
               disagrees without any crash under an adversarial order"
            ~seeded_bug:true ~nprocs:n ~x:1 ~explore_steps:10
            ~property:(fun n -> agreement_property ~lo:0 ~hi:(n - 1))
            (fun n ->
              let make, ms = safe_agreement ~ablate_no_cancel:true n in
              (make, fun () -> ms ())))
  | "x_safe_agreement" ->
      check_min ~min:3 (sized 4) (fun n ->
          scenario ~name
            ~doc:"Figure 6 x_safe_agreement (x=2): agreement + validity"
            ~nprocs:n ~x:2 ~explore_steps:10
            ~property:(fun n -> agreement_property ~lo:10 ~hi:(10 + n - 1))
            (fun n ->
              let make, ms = x_safe_agreement ~first_subset_only:false ~x:2 n in
              (make, fun () -> ms ())))
  | "x_safe_agreement_first_subset" ->
      check_min ~min:4 (sized 4) (fun n ->
          scenario ~name
            ~doc:
              "SEEDED BUG: x_safe_agreement owners funnel through only \
               their first subset — two values once crashes displace the \
               low-pid owners"
            ~seeded_bug:true ~nprocs:n ~x:2 ~explore_steps:10
            ~property:(fun n -> agreement_property ~lo:10 ~hi:(10 + n - 1))
            (fun n ->
              let make, ms = x_safe_agreement ~first_subset_only:true ~x:2 n in
              (make, fun () -> ms ())))
  | "x_safe_agreement_abortable" ->
      check_min ~min:3 (sized 4) (fun n ->
          scenario ~name
            ~doc:
              "x_safe_agreement with abortable decide: a hung instance is \
               detected via the arbiter register and refused, never decided"
            ~nprocs:n ~x:2 ~explore_steps:10
            ~property:(fun n ->
              agreement_except_property ~sentinel:abort_sentinel ~lo:10
                ~hi:(10 + n - 1))
            (fun n ->
              let make, ms = x_safe_agreement_abortable ~x:2 n in
              (make, fun () -> ms ())))
  | "bg_sec3" ->
      let mk_alg () =
        Core.Bg.sim_down
          ~source:(Tasks.Algorithms.kset_grouped ~n:4 ~t:2 ~x:2 ~k:2)
          ~t:1
      in
      let alg = mk_alg () in
      let make, monitors = bg_scenario ~mk_alg ~k:2 () in
      Ok
        {
          name;
          doc =
            "Section 3 simulation: 2-set agreement of ASM(4,2,2) run \
             through sim_down in ASM(4,1,1)";
          seeded_bug = false;
          nprocs = Core.Algorithm.n alg;
          x = alg.Core.Algorithm.model.Core.Model.x;
          make;
          monitors = monitors (Core.Algorithm.n alg);
          (* simulator state lives in refs, not the environment: the
             explorer's closed-program requirement does not hold *)
          explorable = false;
          explore_steps = 0;
          exhaustive_property = (fun _ -> Ok ());
          origin = Builtin;
        }
  | "bg_sec4" ->
      let mk_alg () =
        Core.Bg.sim_up
          ~source:(Tasks.Algorithms.kset_read_write ~n:3 ~t:1 ~k:2)
          ~t':2 ~x:2
      in
      let alg = mk_alg () in
      let make, monitors = bg_scenario ~mk_alg ~k:2 () in
      Ok
        {
          name;
          doc =
            "Section 4 simulation: 2-set agreement of ASM(3,1,1) run \
             through sim_up (x_safe_agreement based) in ASM(3,2,2)";
          seeded_bug = false;
          nprocs = Core.Algorithm.n alg;
          x = alg.Core.Algorithm.model.Core.Model.x;
          make;
          monitors = monitors (Core.Algorithm.n alg);
          explorable = false;
          explore_steps = 0;
          exhaustive_property = (fun _ -> Ok ());
          origin = Builtin;
        }
  | "ts_from_cons" ->
      check_min ~min:2 (sized 3) (fun n ->
          scenario ~name
            ~doc:"tournament test&set from 2-cons: at most one winner"
            ~nprocs:n ~x:2 ~explore_steps:12
            ~property:(fun _ -> winners_property ~bound:1)
            (fun n ->
              let make, ms = ts_from_cons n in
              (make, fun () -> ms ())))
  | "x_compete" ->
      check_min ~min:3 (sized 4) (fun n ->
          scenario ~name ~doc:"Figure 5 x_compete (x=2): at most x winners"
            ~nprocs:n ~x:2 ~explore_steps:20
            ~property:(fun _ -> winners_property ~bound:2)
            (fun n ->
              let make, ms = x_compete ~x:2 n in
              (make, fun () -> ms ())))
  | _ -> Error (Printf.sprintf "unknown scenario %S" name)

let known =
  [
    "safe_agreement";
    "safe_agreement_no_cancel";
    "x_safe_agreement";
    "x_safe_agreement_first_subset";
    "x_safe_agreement_abortable";
    "bg_sec3";
    "bg_sec4";
    "ts_from_cons";
    "x_compete";
  ]

let names () = known

(* ------------------------------------------------------------------ *)
(* DSL scenarios (lib/sdl)                                              *)
(* ------------------------------------------------------------------ *)

(* [names ()] stays builtins-only on purpose: the network handshake's
   registry fingerprint folds it, and registering a local .sdl file
   must not make a binary unable to talk to its peers. DSL jobs carry
   their source in the job itself instead ({!Dist.Proto.job.source}),
   so both sides compile the identical program. *)

let of_compiled ~origin (c : Sdl.Compile.t) =
  {
    name = c.Sdl.Compile.c_name;
    doc = c.Sdl.Compile.c_doc;
    seeded_bug = c.Sdl.Compile.c_seeded_bug;
    nprocs = c.Sdl.Compile.c_nprocs;
    x = c.Sdl.Compile.c_x;
    make = c.Sdl.Compile.c_make;
    monitors = c.Sdl.Compile.c_monitors;
    (* compiled programs are closed by construction (DESIGN §15) *)
    explorable = true;
    explore_steps = c.Sdl.Compile.c_explore_steps;
    exhaustive_property = c.Sdl.Compile.c_property;
    origin;
  }

let of_source ?nprocs ?path source =
  match Sdl.Compile.load ?nprocs source with
  | Error m -> Error m
  | Ok c -> Ok (of_compiled ~origin:(Sdl_source { source; path }) c)

(* name -> (source, path); registered by [--scenario-file]/
   [--scenario-dir]. A registered name shadows a builtin — that is the
   point of twin files — and lookups recompile at the requested size. *)
let registered : (string, string * string option) Hashtbl.t = Hashtbl.create 8

let register_source ?path source =
  match of_source ?path source with
  | Error m -> Error m
  | Ok s ->
      Hashtbl.replace registered s.name (source, path);
      Ok s

let registered_names () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registered [])

let find ?nprocs name =
  match Hashtbl.find_opt registered name with
  | Some (source, path) -> of_source ?nprocs ?path source
  | None -> (
      match build ?nprocs name with
      | Ok s -> Ok s
      | Error e ->
          if List.mem name known then Error e
          else
            let all_known = known @ registered_names () in
            Error
              (Printf.sprintf "%s (known: %s)" e
                 (String.concat ", " all_known)))

let all () =
  List.map
    (fun n -> match build n with Ok s -> s | Error e -> failwith e)
    known

let registered_scenarios () =
  List.filter_map
    (fun n -> match find n with Ok s -> Some s | Error _ -> None)
    (registered_names ())

let sweep_meta s =
  [
    ("scenario", s.name);
    ("nprocs", string_of_int s.nprocs);
    ("x", string_of_int s.x);
  ]

let of_replay_meta meta =
  match List.assoc_opt "scenario" meta with
  | None -> Error "replay artifact has no scenario metadata"
  | Some name ->
      let nprocs =
        Option.bind (List.assoc_opt "nprocs" meta) int_of_string_opt
      in
      find ?nprocs name
