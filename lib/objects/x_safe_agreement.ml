open Svm
open Svm.Prog.Syntax

type t = {
  compete : X_compete.t;
  xcons_fam : Op.fam;
  val_fam : Op.fam;
  abort_fam : Op.fam;
  set_list : int list list;
  x : int;
  static_owners : bool;
  first_subset_only : bool;
}

let make ?(static_owners = false) ?(first_subset_only = false) ~fam
    ~participants ~x () =
  if x < 1 then invalid_arg "X_safe_agreement.make: x must be >= 1";
  if participants < x then
    invalid_arg "X_safe_agreement.make: need at least x participants";
  {
    compete = X_compete.make ~fam:(fam ^ ".ts") ~participants ~x;
    xcons_fam = fam ^ ".xcons";
    val_fam = fam ^ ".val";
    abort_fam = fam ^ ".abort";
    set_list = Combin.subsets ~n:participants ~size:x;
    x;
    static_owners;
    first_subset_only;
  }

(* The decided value is published in what the paper calls the atomic
   register X_SAFE_AG. We realize it as the owner's component of a
   snapshot object: all owners write the same value (Theorem 2), and a
   reader adopts any non-empty component. *)

let publish t ~key ~pid:_ v = Prog.snap_set Codec.any t.val_fam key v

let first_published cells =
  let rec first i =
    if i >= Array.length cells then None
    else match cells.(i) with Some v -> Some v | None -> first (i + 1)
  in
  first 0

let read_published t ~key =
  Prog.map first_published (Prog.snap_scan Codec.any t.val_fam key)

let propose t ~key ~pid v =
  let* owner =
    (* The ablation the paper's Section 4.3 argues against: if owners are
       the same fixed x processes for every instance, their crashes kill
       every instance at once; the dynamic competition confines t'
       crashes to at most floor(t'/x) instances. *)
    if t.static_owners then Prog.return (pid < t.x)
    else X_compete.compete t.compete ~key ~pid
  in
  if not owner then Prog.return ()
  else
    (* Scan SET_LIST in the common order; funnel the estimate through the
       consensus object of every subset containing us. *)
    let rec scan l sets res =
      match sets with
      | [] -> publish t ~key ~pid res
      | s :: rest ->
          if List.mem pid s then
            let* res =
              Prog.cons_propose Codec.any t.xcons_fam (key @ [ l ]) res
            in
            (* Ablated (first_subset_only): stop at the first subset
               containing us instead of scanning the whole SET_LIST. Two
               owners whose first subsets differ then never meet in a
               common consensus object and can publish different values —
               Theorem 2's agreement hinges on the full scan. *)
            if t.first_subset_only then publish t ~key ~pid res
            else scan (l + 1) rest res
          else scan (l + 1) rest res
    in
    scan 0 t.set_list v

let decide t ~key ~pid:_ =
  Prog.snap_scan_until Codec.any t.val_fam key first_published

(* Graceful degradation under responsive omission (the §4 cancel
   semantics): [decide] above spins forever when every owner hangs
   inside [propose]. The abortable variant adds an {e arbiter register}
   per instance. A decider that has scanned [patience] times without
   seeing a published value raises the abort flag and reroutes; any
   process already convinced the instance is dead ([cancel]) trips the
   same flag, so one detection aborts every waiting port. Safety is
   untouched: aborting never invents a value — [`Aborted] is an explicit
   refusal the caller must reroute around, exactly the BG account where
   a blocked instance stalls a simulator but never corrupts decisions. *)

let cancel t ~key = Prog.reg_write Codec.bool t.abort_fam key true

let decide_abortable t ~key ~pid:_ ~patience =
  Prog.loop
    (fun scans ->
      let* published = read_published t ~key in
      match published with
      | Some v -> Prog.return (`Stop (`Decided v))
      | None -> (
          let* aborted = Prog.reg_read Codec.bool t.abort_fam key in
          match aborted with
          | Some true -> Prog.return (`Stop `Aborted)
          | Some false | None ->
              if scans >= patience then
                let* () = cancel t ~key in
                Prog.return (`Stop `Aborted)
              else Prog.return (`Again (scans + 1))))
    0

let subsets t = t.set_list

let peek_decided env t ~key =
  match Env.peek_snapshot env t.val_fam key with
  | None -> None
  | Some cells ->
      Array.to_list cells |> List.find_map (fun c -> c)
