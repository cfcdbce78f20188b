(* Compiler from validated scenario ASTs to runnable artifacts: an
   environment + program array (the same shape {!Experiments.Scenario.t}
   carries), a fresh monitor list, and a pure exhaustive property.

   Soundness notes (DESIGN §15):

   - Compiled programs are {e closed}: every piece of per-process state
     lives either in the shared environment or in the program's own
     continuation — there are no refs captured outside the [Prog.t]
     value. A crash-recovery restart replays the program from the top
     against the surviving shared memory, and the exhaustive explorer's
     re-execution requirement holds, so every compiled scenario is
     explorable.

   - Compiled properties are {e schedule-pure}: they are built only
     from the closed combinator set over decided values ([outcomes]),
     which never inspects [Explore.run.schedule]. The explorer's
     pruning rules are therefore sound for every compiled property.

   - {e Byte identity with builtins}: the declared object name doubles
     as the {!Svm.Op.fam}, the statement interpreter adds no operations
     of its own (continuation plumbing is free), and the int-coded
     monitor / property kits below are the very ones the registry's
     builtins use ([Experiments.Scenario] takes them from here) — so a
     DSL twin of a registry scenario produces the identical op stream,
     verdict strings, and replay artifacts. The differential tests in
     [test_sdl.ml] and [make smoke-sdl] pin this. *)

open Svm
module So = Shared_objects

(* Sources may arrive over the wire ([asmsim serve] accepts them in job
   submissions); this cap bounds what a remote client can make the
   server parse. Checked by {!load} and by the protocol decoder. *)
let max_source_bytes = 65536

type t = {
  c_name : string;
  c_doc : string;
  c_seeded_bug : bool;
  c_nprocs : int;
  c_min_nprocs : int;
  c_x : int;
  c_explore_steps : int;
  c_make : unit -> Env.t * Univ.t Prog.t array;
  c_monitors : unit -> Univ.t Monitor.t list;
  c_property : Univ.t Explore.run -> (unit, string) result;
}

(* ---- int-coded value kits, shared with the scenario registry ---- *)

let inj = Codec.int.Codec.inj

let prj_int u =
  match Codec.int.Codec.prj u with
  | v -> v
  | exception Codec.Type_error _ -> 0

let pp_int u =
  match Codec.int.Codec.prj u with
  | v -> string_of_int v
  | exception Codec.Type_error _ -> "<univ>"

let int_in ~lo ~hi u =
  match Codec.int.Codec.prj u with
  | v -> v >= lo && v <= hi
  | exception Codec.Type_error _ -> false

let decided_ints run =
  Array.to_list run.Explore.outcomes
  |> List.filter_map (function
       | Exec.Decided u -> Some (Codec.int.Codec.prj u)
       | Exec.Crashed | Exec.Blocked | Exec.Stuck -> None)

let agreement_property ~lo ~hi run =
  let ds = decided_ints run in
  if List.exists (fun v -> v < lo || v > hi) ds then
    Error "validity: decided value outside the proposed range"
  else
    match ds with
    | [] -> Ok ()
    | d :: rest ->
        if List.for_all (fun v -> v = d) rest then Ok ()
        else Error "agreement: two distinct values decided"

(* [decided_value_integrity] instead of plain [validity]: identical on
   crash-only runs (no Corrupted events), and under Byzantine sweeps it
   checks exactly the degradation claim — no honest process adopts a
   forged value — without charging a Byzantine pid's own "decision". *)
let agreement_monitors ~lo ~hi () =
  [
    Monitor.agreement ~pp:pp_int ();
    Monitor.decided_value_integrity ~pp:pp_int ~allowed:(int_in ~lo ~hi) ();
  ]

let validity_property ~lo ~hi run =
  let ds = decided_ints run in
  if List.exists (fun v -> v < lo || v > hi) ds then
    Error "validity: decided value outside the proposed range"
  else Ok ()

let k_agreement_property ~k ~lo ~hi run =
  let ds = decided_ints run in
  if List.exists (fun v -> v < lo || v > hi) ds then
    Error "validity: decided value outside the proposed range"
  else
    let distinct = List.sort_uniq compare ds in
    if List.length distinct <= k then Ok ()
    else
      Error
        (Printf.sprintf "k-agreement: %d distinct values decided (k = %d)"
           (List.length distinct) k)

(* ---- expression evaluation ---- *)

(* Total: comparisons yield 0/1, division and modulo by zero yield 0.
   Unbound variables cannot reach here (the validator rejects them). *)
let rec eval ~pid ~nprocs vars e =
  match e.Ast.e_desc with
  | Ast.Int n -> n
  | Ast.Pid -> pid
  | Ast.Nprocs -> nprocs
  | Ast.Var v -> ( match List.assoc_opt v vars with Some n -> n | None -> 0)
  | Ast.Binop (op, a, b) -> (
      let va = eval ~pid ~nprocs vars a and vb = eval ~pid ~nprocs vars b in
      let b2i c = if c then 1 else 0 in
      match op with
      | Ast.Add -> va + vb
      | Ast.Sub -> va - vb
      | Ast.Mul -> va * vb
      | Ast.Div -> if vb = 0 then 0 else va / vb
      | Ast.Mod -> if vb = 0 then 0 else va mod vb
      | Ast.Eq -> b2i (va = vb)
      | Ast.Ne -> b2i (va <> vb)
      | Ast.Lt -> b2i (va < vb)
      | Ast.Le -> b2i (va <= vb)
      | Ast.Gt -> b2i (va > vb)
      | Ast.Ge -> b2i (va >= vb))

(* ---- object handles ---- *)

type handle =
  | H_plain  (** reg / snap / cons / ts / queue: Prog helpers on the fam *)
  | H_sa of So.Safe_agreement.t * bool  (** the bool is [no_cancel] *)
  | H_xsa of So.X_safe_agreement.t
  | H_ac of So.Adopt_commit.t

let make_handles ~nprocs objs =
  List.map
    (fun o ->
      let h =
        match o.Ast.o_kind with
        | Ast.Reg | Ast.Snap | Ast.Cons _ | Ast.Ts | Ast.Queue -> H_plain
        | Ast.Sa { no_cancel } ->
            H_sa (So.Safe_agreement.make ~fam:o.Ast.o_name, no_cancel)
        | Ast.Xsa { x; first_subset_only; static_owners } ->
            H_xsa
              (So.X_safe_agreement.make ~static_owners ~first_subset_only
                 ~fam:o.Ast.o_name ~participants:nprocs ~x ())
        | Ast.Ac -> H_ac (So.Adopt_commit.make ~fam:o.Ast.o_name)
      in
      (o.Ast.o_name, h))
    objs

(* ---- the statement interpreter (CPS over Prog) ---- *)

(* The interpreter adds no Steps of its own: every [Prog.bind] below
   wraps an operation the source explicitly wrote, so the compiled op
   stream is exactly the declared one. *)

let exec_call ~handles ~pid ~nprocs vars c (k : int -> Univ.t Prog.t) :
    Univ.t Prog.t =
  let ev e = eval ~pid ~nprocs vars e in
  let dflt = function Some e -> ev e | None -> 0 in
  let handle obj = List.assoc_opt obj handles in
  match c.Ast.c_desc with
  | Ast.Read { obj; key; default } ->
      Prog.bind (Prog.reg_read Codec.int obj key) (function
        | Some v -> k v
        | None -> k (dflt default))
  | Ast.Deq { obj; key; default } ->
      Prog.bind (Prog.queue_deq Codec.int obj key) (function
        | Some v -> k v
        | None -> k (dflt default))
  | Ast.Scan_max { obj; key; default } ->
      Prog.bind (Prog.snap_scan Codec.int obj key) (fun arr ->
          let best =
            Array.fold_left
              (fun acc o ->
                match (o, acc) with
                | None, _ -> acc
                | Some v, Some b when b >= v -> acc
                | Some v, _ -> Some v)
              None arr
          in
          match best with Some v -> k v | None -> k (dflt default))
  | Ast.Ts_call { obj; key } ->
      Prog.bind (Prog.ts obj key) (fun won -> k (if won then 1 else 0))
  | Ast.Propose { obj; key; value } -> (
      let v = ev value in
      match handle obj with
      | Some (H_sa (sa, no_cancel)) ->
          let p =
            if no_cancel then
              So.Ablations.sa_propose_no_cancel ~fam:obj ~key (inj v)
            else So.Safe_agreement.propose sa ~key (inj v)
          in
          Prog.bind p (fun () -> k 0)
      | Some (H_xsa xsa) ->
          Prog.bind
            (So.X_safe_agreement.propose xsa ~key ~pid (inj v))
            (fun () -> k 0)
      | Some (H_ac ac) ->
          Prog.bind
            (So.Adopt_commit.propose ac ~key ~pid (inj v))
            (fun (_verdict, u) -> k (prj_int u))
      | Some H_plain -> Prog.bind (Prog.cons_propose Codec.int obj key v) k
      | None -> k 0 (* unreachable: the validator rejects unknown objects *))
  | Ast.Decide_obj { obj; key } -> (
      match handle obj with
      | Some (H_sa (sa, _)) ->
          Prog.bind (So.Safe_agreement.decide sa ~key) (fun u ->
              k (prj_int u))
      | Some (H_xsa xsa) ->
          Prog.bind (So.X_safe_agreement.decide xsa ~key ~pid) (fun u ->
              k (prj_int u))
      | _ -> k 0 (* unreachable: the validator pins decide to sa/xsa *))

let rec exec_stmts ~handles ~pid ~nprocs vars stmts
    (k : (string * int) list -> Univ.t Prog.t) : Univ.t Prog.t =
  match stmts with
  | [] -> k vars
  | st :: rest -> (
      let continue vars' = exec_stmts ~handles ~pid ~nprocs vars' rest k in
      match st.Ast.st_desc with
      | Ast.Decide e ->
          (* terminal: the continuation (unreachable code was already
             rejected) is dropped *)
          Prog.return (inj (eval ~pid ~nprocs vars e))
      | Ast.Yield -> Prog.bind Prog.yield (fun () -> continue vars)
      | Ast.Let (v, c) ->
          exec_call ~handles ~pid ~nprocs vars c (fun r ->
              continue ((v, r) :: vars))
      | Ast.Call c ->
          exec_call ~handles ~pid ~nprocs vars c (fun _ -> continue vars)
      | Ast.Write { obj; key; value } ->
          Prog.bind
            (Prog.reg_write Codec.int obj key (eval ~pid ~nprocs vars value))
            (fun () -> continue vars)
      | Ast.Set { obj; key; value } ->
          Prog.bind
            (Prog.snap_set Codec.int obj key (eval ~pid ~nprocs vars value))
            (fun () -> continue vars)
      | Ast.Enq { obj; key; value } ->
          Prog.bind
            (Prog.queue_enq Codec.int obj key (eval ~pid ~nprocs vars value))
            (fun () -> continue vars)
      | Ast.Repeat (n, body) ->
          let rec iter i =
            if i <= 0 then continue vars
            else
              (* bindings made inside the body are lexically scoped to
                 it: each iteration (and the rest) sees the outer vars *)
              exec_stmts ~handles ~pid ~nprocs vars body (fun _ ->
                  iter (i - 1))
          in
          iter n
      | Ast.If (cond, then_, else_) ->
          let branch =
            if eval ~pid ~nprocs vars cond <> 0 then then_ else else_
          in
          exec_stmts ~handles ~pid ~nprocs vars branch (fun _ -> continue vars)
      )

let block_for sc pid =
  List.find_opt
    (fun pb ->
      match pb.Ast.pb_sel with
      | Ast.All -> true
      | Ast.Range (lo, hi) -> pid >= lo && pid <= hi)
    sc.Ast.sc_procs

(* ---- properties ---- *)

(* Property range bounds close over nprocs only (validated), so they
   are resolved once per size here. *)
let resolve_bound ~nprocs e = eval ~pid:0 ~nprocs [] e

let prop_monitors ~nprocs p () =
  match p.Ast.p_desc with
  | Ast.Agreement { lo; hi } ->
      let lo = resolve_bound ~nprocs lo and hi = resolve_bound ~nprocs hi in
      agreement_monitors ~lo ~hi ()
  | Ast.K_agreement { k; lo; hi } ->
      let lo = resolve_bound ~nprocs lo and hi = resolve_bound ~nprocs hi in
      [
        Monitor.k_agreement ~pp:pp_int ~k ();
        Monitor.decided_value_integrity ~pp:pp_int ~allowed:(int_in ~lo ~hi)
          ();
      ]
  | Ast.Validity { lo; hi } ->
      let lo = resolve_bound ~nprocs lo and hi = resolve_bound ~nprocs hi in
      [ Monitor.validity ~pp:pp_int ~allowed:(int_in ~lo ~hi) () ]
  | Ast.Integrity { lo; hi } ->
      let lo = resolve_bound ~nprocs lo and hi = resolve_bound ~nprocs hi in
      [
        Monitor.decided_value_integrity ~pp:pp_int ~allowed:(int_in ~lo ~hi)
          ();
      ]
  | Ast.Stall_bound { prefix; bound } ->
      [ Monitor.stall_bound ~fam_prefix:prefix ~bound () ]

let prop_run_check ~nprocs p =
  match p.Ast.p_desc with
  | Ast.Agreement { lo; hi } ->
      let lo = resolve_bound ~nprocs lo and hi = resolve_bound ~nprocs hi in
      agreement_property ~lo ~hi
  | Ast.K_agreement { k; lo; hi } ->
      let lo = resolve_bound ~nprocs lo and hi = resolve_bound ~nprocs hi in
      k_agreement_property ~k ~lo ~hi
  | Ast.Validity { lo; hi } | Ast.Integrity { lo; hi } ->
      (* the explorer injects crashes only, so integrity coincides with
         validity on explored runs *)
      let lo = resolve_bound ~nprocs lo and hi = resolve_bound ~nprocs hi in
      validity_property ~lo ~hi
  | Ast.Stall_bound _ ->
      (* monitor-only: stall accounting needs the event stream, which
         the run record does not carry *)
      fun _ -> Ok ()

let conjoin checks run =
  let rec go = function
    | [] -> Ok ()
    | c :: rest -> ( match c run with Ok () -> go rest | Error _ as e -> e)
  in
  go checks

(* ---- compile ---- *)

let err span fmt = Printf.ksprintf (fun m -> { Ast.e_span = span; e_msg = m }) fmt

let compile ?nprocs (sc : Ast.scenario) : (t, Ast.error) result =
  let sized = match nprocs with Some n -> n | None -> sc.Ast.sc_nprocs in
  if sized < sc.Ast.sc_min_nprocs then
    Error
      (err sc.Ast.sc_span
         "scenario %s needs at least %d processes (valid nprocs: %d and up; \
          got %d)"
         sc.Ast.sc_name sc.Ast.sc_min_nprocs sc.Ast.sc_min_nprocs sized)
  else
    match Validate.validate_sized ~nprocs:sized sc with
    | Error e -> Error e
    | Ok () ->
        let n = sized in
        let make () =
          let env = Env.create ~nprocs:n ~x:sc.Ast.sc_x () in
          let handles = make_handles ~nprocs:n sc.Ast.sc_objects in
          let prog pid =
            match block_for sc pid with
            | Some pb ->
                exec_stmts ~handles ~pid ~nprocs:n [] pb.Ast.pb_body
                  (fun _ ->
                    (* unreachable: the validator requires every path to
                       end in a decide *)
                    Prog.return (inj 0))
            | None -> Prog.return (inj 0) (* unreachable: coverage checked *)
          in
          (env, Array.init n prog)
        in
        let monitors () =
          List.concat_map (fun p -> prop_monitors ~nprocs:n p ()) sc.Ast.sc_props
        in
        let checks = List.map (prop_run_check ~nprocs:n) sc.Ast.sc_props in
        Ok
          {
            c_name = sc.Ast.sc_name;
            c_doc = sc.Ast.sc_doc;
            c_seeded_bug = sc.Ast.sc_seeded_bug;
            c_nprocs = n;
            c_min_nprocs = sc.Ast.sc_min_nprocs;
            c_x = sc.Ast.sc_x;
            c_explore_steps = sc.Ast.sc_explore_steps;
            c_make = make;
            c_monitors = monitors;
            c_property = conjoin checks;
          }

(* Parse + validate (no size needed). The front half of [load], exposed
   for tooling ([asmsim sdl check] / [fmt]). Sources arrive over the
   wire, so a Stack_overflow out of the frontend (the parser depth-caps
   its own recursion, but programmatically built or pathological inputs
   must not crash the server either) is converted to a typed reject. *)
let frontend source : (Ast.scenario, Ast.error) result =
  match
    match Parser.parse source with
    | Error _ as e -> e
    | Ok sc -> (
        match Validate.validate sc with Ok () -> Ok sc | Error e -> Error e)
  with
  | r -> r
  | exception Stack_overflow ->
      Error
        {
          Ast.e_span = Ast.dummy_span;
          e_msg = "the source nests too deeply to process";
        }

(* The whole pipeline on a source string, errors stringified with their
   spans — what the CLI and the server's job decoder consume. *)
let load ?nprocs source : (t, string) result =
  if String.length source > max_source_bytes then
    Error
      (Printf.sprintf "scenario source is %d bytes (cap %d)"
         (String.length source) max_source_bytes)
  else
    match frontend source with
    | Error e -> Error (Ast.error_to_string e)
    | Ok sc -> (
        match compile ?nprocs sc with
        | Ok t -> Ok t
        | Error e -> Error (Ast.error_to_string e)
        | exception Stack_overflow ->
            Error "the source nests too deeply to compile")
