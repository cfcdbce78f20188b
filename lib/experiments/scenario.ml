open Svm
open Svm.Prog.Syntax

type origin = Sdl.Compile.origin =
  | Builtin
  | Sdl_source of { source : string; path : string option }

type t = Sdl.Compile.t = {
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
(* The systems under test: size -> fresh environment + programs         *)
(* ------------------------------------------------------------------ *)

let safe_agreement ~ablate_no_cancel n () =
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

let x_safe_agreement ~first_subset_only ~x n () =
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

let ts_from_cons n () =
  let env = Env.create ~nprocs:n ~x:2 () in
  let ts = Shared_objects.Ts_from_cons.make ~fam:"TS" ~participants:n in
  let prog i =
    Prog.map Codec.bool.Codec.inj
      (Shared_objects.Ts_from_cons.compete ts ~key:[] ~pid:i)
  in
  (env, Array.init n prog)

let abort_sentinel = 999

let x_safe_agreement_abortable ~x n () =
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
         instances never abort; a hung owner makes every decider abort
         within [patience] scans instead of spinning forever. *)
      Shared_objects.X_safe_agreement.decide_abortable xsa ~key:[] ~pid:i
        ~patience:60
    in
    match r with
    | `Decided v -> Prog.return v
    | `Aborted -> Prog.return (Codec.int.Codec.inj abort_sentinel)
  in
  (env, Array.init n prog)

(* BG simulations as sweepable scenarios (§3 sim_down, §4 sim_up). The
   simulator keeps its local state in refs allocated when [code] is
   applied, so the program handed to the executor is built behind a
   leading [Yield]: a crash-recovery restart re-executes the Yield and
   re-applies [code], rebuilding the simulator's local state from
   scratch — local state lost, shared memory kept, which is exactly the
   restart contract. *)
let bg_simulation mk_alg _n () =
  let alg = mk_alg () in
  let env =
    Env.create ~nprocs:(Core.Algorithm.n alg)
      ~x:alg.Core.Algorithm.model.Core.Model.x ()
  in
  let prog pid =
    let* () = Prog.yield in
    alg.Core.Algorithm.code ~pid ~input:(Codec.int.Codec.inj (10 + pid))
  in
  (env, Array.init (Core.Algorithm.n alg) prog)

let x_compete ~x n () =
  let env = Env.create ~nprocs:n ~x:2 () in
  let xc = Shared_objects.X_compete.make ~fam:"XC" ~participants:n ~x in
  let prog i =
    Prog.map Codec.bool.Codec.inj
      (Shared_objects.X_compete.compete xc ~key:[] ~pid:i)
  in
  (env, Array.init n prog)

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

(* One builtin: its name, and how to build it at a requested size. *)
let builtin name ~doc ~size ~x ~depth ?(seeded_bug = false)
    ?(explorable = true) ~props make =
  let build nprocs =
    Result.map
      (fun n ->
        let monitors, exhaustive_property = Sdl.Compile.kits (props n) in
        {
          name;
          doc;
          seeded_bug;
          nprocs = n;
          x;
          make = make n;
          monitors;
          explorable;
          explore_steps = depth;
          exhaustive_property;
          origin = Builtin;
        })
      (Sdl.Compile.resolve_size ~name size nprocs)
  in
  (name, build)

(* In this order on purpose: the network handshake's registry
   fingerprint folds [all ()]. *)
let builtins =
  let open Sdl.Compile in
  let agreement ~lo n = [ Agreement { lo; hi = lo + n - 1 } ]
  and bg_props n =
    [
      K_agreement { k = 2; lo = 10; hi = 10 + n - 1 };
      Stall_bound { prefix = "SA"; bound = 1 };
      Stall_bound { prefix = "XSA:"; bound = 1 };
    ]
  in
  [
    builtin "safe_agreement"
      ~doc:"Figure 1 safe agreement: agreement + validity"
      ~size:(At_least { default = 3; min = 2 })
      ~x:1 ~depth:12 ~props:(agreement ~lo:0)
      (safe_agreement ~ablate_no_cancel:false);
    builtin "safe_agreement_no_cancel"
      ~doc:
        "SEEDED BUG: safe agreement stabilizing unconditionally — \
         disagrees without any crash under an adversarial order"
      ~size:(At_least { default = 2; min = 2 })
      ~x:1 ~depth:10 ~seeded_bug:true ~props:(agreement ~lo:0)
      (safe_agreement ~ablate_no_cancel:true);
    builtin "x_safe_agreement"
      ~doc:"Figure 6 x_safe_agreement (x=2): agreement + validity"
      ~size:(At_least { default = 4; min = 3 })
      ~x:2 ~depth:10 ~props:(agreement ~lo:10)
      (x_safe_agreement ~first_subset_only:false ~x:2);
    builtin "x_safe_agreement_first_subset"
      ~doc:
        "SEEDED BUG: x_safe_agreement owners funnel through only their \
         first subset — two values once crashes displace the low-pid \
         owners"
      ~size:(At_least { default = 4; min = 4 })
      ~x:2 ~depth:10 ~seeded_bug:true ~props:(agreement ~lo:10)
      (x_safe_agreement ~first_subset_only:true ~x:2);
    builtin "x_safe_agreement_abortable"
      ~doc:
        "x_safe_agreement with abortable decide: a hung instance is \
         detected via the arbiter register and refused, never decided"
      ~size:(At_least { default = 4; min = 3 })
      ~x:2 ~depth:10
      ~props:(fun n ->
        [
          Agreement_except
            { sentinel = abort_sentinel; lo = 10; hi = 10 + n - 1 };
        ])
      (x_safe_agreement_abortable ~x:2);
    (* the BG simulations keep simulator state in refs, not the
       environment: the explorer's closed-program requirement does not
       hold *)
    builtin "bg_sec3"
      ~doc:
        "Section 3 simulation: 2-set agreement of ASM(4,2,2) run through \
         sim_down in ASM(4,1,1)"
      ~size:(Exactly 4) ~x:1 ~depth:0 ~explorable:false ~props:bg_props
      (bg_simulation (fun () ->
           Core.Bg.sim_down
             ~source:(Tasks.Algorithms.kset_grouped ~n:4 ~t:2 ~x:2 ~k:2)
             ~t:1));
    builtin "bg_sec4"
      ~doc:
        "Section 4 simulation: 2-set agreement of ASM(3,1,1) run through \
         sim_up (x_safe_agreement based) in ASM(3,2,2)"
      ~size:(Exactly 3) ~x:2 ~depth:0 ~explorable:false ~props:bg_props
      (bg_simulation (fun () ->
           Core.Bg.sim_up
             ~source:(Tasks.Algorithms.kset_read_write ~n:3 ~t:1 ~k:2)
             ~t':2 ~x:2));
    builtin "ts_from_cons"
      ~doc:"tournament test&set from 2-cons: at most one winner"
      ~size:(At_least { default = 3; min = 2 })
      ~x:2 ~depth:12 ~props:(fun _ -> [ Winners 1 ])
      ts_from_cons;
    builtin "x_compete" ~doc:"Figure 5 x_compete (x=2): at most x winners"
      ~size:(At_least { default = 4; min = 3 })
      ~x:2 ~depth:20 ~props:(fun _ -> [ Winners 2 ])
      (x_compete ~x:2);
  ]

let names () = List.map fst builtins

let all () =
  List.map
    (fun (_, build) ->
      match build None with Ok s -> s | Error e -> failwith e)
    builtins

(* ------------------------------------------------------------------ *)
(* DSL scenarios (lib/sdl)                                              *)
(* ------------------------------------------------------------------ *)

(* [names ()] stays builtins-only on purpose: the network handshake's
   registry fingerprint folds it, and registering a local .sdl file
   must not make a binary unable to talk to its peers. DSL jobs carry
   their source in the job itself instead ({!Dist.Proto.job.source}),
   so both sides compile the identical program. *)

let of_source = Sdl.Compile.load

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

let unregister name = Hashtbl.remove registered name

let registered_names () =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registered [])

let find ?nprocs name =
  match Hashtbl.find_opt registered name with
  | Some (source, path) -> of_source ?nprocs ?path source
  | None -> (
      match List.assoc_opt name builtins with
      | Some build -> build nprocs
      | None ->
          Error
            (Printf.sprintf "unknown scenario %S (known: %s)" name
               (String.concat ", " (names () @ registered_names ()))))

let listing () =
  List.sort_uniq compare (names () @ registered_names ())
  |> List.filter_map (fun name -> Result.to_option (find name))

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
