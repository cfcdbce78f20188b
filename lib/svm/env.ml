exception Violation of string

(* Monomorphic equality and hash: a lookup per step, so no polymorphic
   compare or generic hash walk. *)
module Key = struct
  type t = Op.fam * Op.key

  let rec equal_ints (a : int list) (b : int list) =
    match (a, b) with
    | [], [] -> true
    | x :: a, y :: b -> Int.equal x y && equal_ints a b
    | _ :: _, [] | [], _ :: _ -> false

  let equal (f1, k1) (f2, k2) = String.equal f1 f2 && equal_ints k1 k2

  let hash (f, k) =
    List.fold_left (fun h x -> (h * 31) + x) (String.hash f) k land max_int
end

module Tbl = Hashtbl.Make (Key)

type cons_state = {
  mutable decided : Univ.t option;
  mutable accessors : int list; (* distinct pids, unsorted *)
}

type kset_state = {
  k : int;
  ports : int option; (* (m, l)-set objects: at most m distinct accessors *)
  mutable values : Univ.t list; (* decided values, |values| <= k *)
  mutable accessors : int list;
}

type instance =
  | I_register of Univ.t option ref
  | I_snapshot of Univ.t option array
  | I_ts of bool ref
  | I_cons of cons_state
  | I_kset of kset_state
  | I_queue of Univ.t list ref (* front of queue = head of list *)

type oracle = pid:int -> query:int -> Univ.t

(* One logged mutation. Each entry carries the pre-mutation value and a
   direct pointer to the mutated cell, so undoing is a single store. *)
type undo =
  | U_reg of Univ.t option ref * Univ.t option
  | U_snap of Univ.t option array * int * Univ.t option
  | U_ts of bool ref * bool
  | U_cons_decided of cons_state * Univ.t option
  | U_cons_accessors of cons_state * int list
  | U_kset_values of kset_state * Univ.t list
  | U_kset_accessors of kset_state * int list
  | U_queue of Univ.t list ref * Univ.t list
  | U_create of Key.t (* instance lazily created; undo removes it *)
  | U_oracle of (Op.fam * int, int) Hashtbl.t * (Op.fam * int) * int option
  | U_oracle_tbl (* oracle_queries table materialised; undo drops it *)

type t = {
  nprocs : int;
  x : int;
  allow_kset : bool;
  allow_cas : bool;
  instances : instance Tbl.t;
  oracles : (Op.fam, oracle) Hashtbl.t;
  mutable oracle_queries : (Op.fam * int, int) Hashtbl.t option;
  mutable journaling : bool;
  mutable journal : undo list;
  mutable version : int;
}

let create ~nprocs ~x ?(allow_kset = false) ?(allow_cas = false) () =
  if nprocs <= 0 then invalid_arg "Env.create: nprocs must be positive";
  if x <= 0 then invalid_arg "Env.create: x must be positive";
  {
    nprocs;
    x;
    allow_kset;
    allow_cas;
    instances = Tbl.create 64;
    oracles = Hashtbl.create 4;
    oracle_queries = None;
    journaling = false;
    journal = [];
    version = 0;
  }

let nprocs t = t.nprocs
let x t = t.x
let version t = t.version

(* ------------------------------------------------------------------ *)
(* Undo journal                                                        *)
(* ------------------------------------------------------------------ *)

(* The journal is a cons-list that only ever grows at the head while
   journaling is on. A checkpoint is the list value at that moment, so
   rollback pops (undoing each mutation) until the current list is
   physically the checkpoint again — rolling back k steps costs O(k)
   instead of the O(store) deep copy it replaces. *)
type checkpoint = undo list

(* Every mutation goes through [log], journaled or not, so [log] is
   where the store's version moves. *)
let log t u =
  t.version <- t.version + 1;
  if t.journaling then t.journal <- u :: t.journal

let enable_journal t =
  t.journaling <- true;
  t.journal <- []

let disable_journal t =
  t.journaling <- false;
  t.journal <- []

let checkpoint t =
  if not t.journaling then invalid_arg "Env.checkpoint: journaling is off";
  t.journal

let undo1 t = function
  | U_reg (r, v) -> r := v
  | U_snap (a, i, v) -> a.(i) <- v
  | U_ts (r, v) -> r := v
  | U_cons_decided (c, v) -> c.decided <- v
  | U_cons_accessors (c, l) -> c.accessors <- l
  | U_kset_values (s, l) -> s.values <- l
  | U_kset_accessors (s, l) -> s.accessors <- l
  | U_queue (q, l) -> q := l
  | U_create key -> Tbl.remove t.instances key
  | U_oracle (tbl, k, None) -> Hashtbl.remove tbl k
  | U_oracle (tbl, k, Some v) -> Hashtbl.replace tbl k v
  | U_oracle_tbl -> t.oracle_queries <- None

let rollback t (cp : checkpoint) =
  if not t.journaling then invalid_arg "Env.rollback: journaling is off";
  t.version <- t.version + 1;
  let rec go () =
    if t.journal != cp then
      match t.journal with
      | [] ->
          invalid_arg "Env.rollback: checkpoint is not a suffix of the journal"
      | u :: rest ->
          undo1 t u;
          t.journal <- rest;
          go ()
  in
  go ()

let with_rollback t f =
  let cp = checkpoint t in
  Fun.protect ~finally:(fun () -> rollback t cp) f

let violation fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt

(* Instances are resolved straight from the op's (family, key); the
   [Op.info] the messages print is only built on the error path. *)
let info kind fam key = { Op.kind; fam; key }

let kind_mismatch kind fam key =
  violation "object %a accessed with mismatched kind" Op.pp_info
    (info kind fam key)

let create_instance t k i =
  Tbl.add t.instances k i;
  log t (U_create k)

let register t fam key =
  let k = (fam, key) in
  match Tbl.find t.instances k with
  | I_register r -> r
  | I_snapshot _ | I_ts _ | I_cons _ | I_kset _ | I_queue _ ->
      kind_mismatch Op.Register fam key
  | exception Not_found ->
      let r = ref None in
      create_instance t k (I_register r);
      r

let snapshot t fam key =
  let k = (fam, key) in
  match Tbl.find t.instances k with
  | I_snapshot a -> a
  | I_register _ | I_ts _ | I_cons _ | I_kset _ | I_queue _ ->
      kind_mismatch Op.Snapshot fam key
  | exception Not_found ->
      let a = Array.make t.nprocs None in
      create_instance t k (I_snapshot a);
      a

let ts t fam key =
  if t.x < 2 then
    violation "test&set %a requires consensus number >= 2 (model has x = %d)"
      Op.pp_info
      (info Op.Test_and_set fam key)
      t.x;
  let k = (fam, key) in
  match Tbl.find t.instances k with
  | I_ts r -> r
  | I_register _ | I_snapshot _ | I_cons _ | I_kset _ | I_queue _ ->
      kind_mismatch Op.Test_and_set fam key
  | exception Not_found ->
      let r = ref false in
      create_instance t k (I_ts r);
      r

let cons t fam key =
  let k = (fam, key) in
  match Tbl.find t.instances k with
  | I_cons c -> c
  | I_register _ | I_snapshot _ | I_ts _ | I_kset _ | I_queue _ ->
      kind_mismatch Op.Consensus fam key
  | exception Not_found ->
      let c = { decided = None; accessors = [] } in
      create_instance t k (I_cons c);
      c

(* Key convention: [l] or [l; m; ...] — head is the object's l (how many
   distinct values it may decide), the optional second component is its
   port count m. *)
let kset t fam key =
  if not t.allow_kset then
    violation "k-set object %a is not allowed in this model" Op.pp_info
      (info Op.Kset fam key);
  let l, ports =
    match key with
    | l :: m :: _ -> (l, Some m)
    | [ l ] -> (l, None)
    | [] -> (1, None)
  in
  if l <= 0 then
    violation "k-set object %a has non-positive k" Op.pp_info
      (info Op.Kset fam key);
  (match ports with
  | Some m when m <= 0 ->
      violation "k-set object %a has non-positive port count" Op.pp_info
        (info Op.Kset fam key)
  | Some _ | None -> ());
  let k = (fam, key) in
  match Tbl.find t.instances k with
  | I_kset s -> s
  | I_register _ | I_snapshot _ | I_ts _ | I_cons _ | I_queue _ ->
      kind_mismatch Op.Kset fam key
  | exception Not_found ->
      let s = { k = l; ports; values = []; accessors = [] } in
      create_instance t k (I_kset s);
      s

(* A queue has consensus number 2 (like test&set), so it is legal in any
   model with x >= 2 regardless of how many processes share it. *)
let queue t fam key =
  if t.x < 2 then
    violation "queue %a requires consensus number >= 2 (model has x = %d)"
      Op.pp_info (info Op.Queue fam key) t.x;
  let k = (fam, key) in
  match Tbl.find t.instances k with
  | I_queue q -> q
  | I_register _ | I_snapshot _ | I_ts _ | I_cons _ | I_kset _ ->
      kind_mismatch Op.Queue fam key
  | exception Not_found ->
      let q = ref [] in
      create_instance t k (I_queue q);
      q

let check_pid t pid =
  if pid < 0 || pid >= t.nprocs then
    violation "pid %d out of range [0, %d)" pid t.nprocs

let apply (type r) t ~pid (op : r Op.t) : r =
  check_pid t pid;
  match op with
  | Op.Yield -> ()
  | Op.Reg_read (fam, key) -> !(register t fam key)
  | Op.Reg_write (fam, key, v) ->
      let r = register t fam key in
      log t (U_reg (r, !r));
      r := Some v
  | Op.Snap_set (fam, key, v) ->
      let a = snapshot t fam key in
      log t (U_snap (a, pid, a.(pid)));
      a.(pid) <- Some v
  | Op.Snap_scan (fam, key) -> Array.copy (snapshot t fam key)
  | Op.Ts (fam, key) ->
      let r = ts t fam key in
      if !r then false
      else begin
        log t (U_ts (r, false));
        r := true;
        true
      end
  | Op.Cons_propose (fam, key, v) ->
      let c = cons t fam key in
      if not (List.mem pid c.accessors) then begin
        if List.length c.accessors >= t.x then
          violation
            "consensus %a: port discipline violated (pid %d is the %dth \
             distinct accessor but x = %d)"
            Op.pp_info
            (info Op.Consensus fam key)
            pid
            (List.length c.accessors + 1)
            t.x;
        log t (U_cons_accessors (c, c.accessors));
        c.accessors <- pid :: c.accessors
      end;
      (match c.decided with
      | Some d -> d
      | None ->
          log t (U_cons_decided (c, None));
          c.decided <- Some v;
          v)
  | Op.Kset_propose (fam, key, v) ->
      let s = kset t fam key in
      (match s.ports with
      | None -> ()
      | Some m ->
          if not (List.mem pid s.accessors) then begin
            if List.length s.accessors >= m then
              violation
                "(m,l)-set object %a: port discipline violated (m = %d)"
                Op.pp_info (info Op.Kset fam key) m;
            log t (U_kset_accessors (s, s.accessors));
            s.accessors <- pid :: s.accessors
          end);
      if List.length s.values < s.k then begin
        log t (U_kset_values (s, s.values));
        s.values <- v :: s.values;
        v
      end
      else begin
        match s.values with decided :: _ -> decided | [] -> assert false
      end
  | Op.Queue_enq (fam, key, v) ->
      let q = queue t fam key in
      log t (U_queue (q, !q));
      q := !q @ [ v ]
  | Op.Queue_deq (fam, key) -> (
      let q = queue t fam key in
      match !q with
      | [] -> None
      | head :: rest ->
          log t (U_queue (q, !q));
          q := rest;
          Some head)
  | Op.Oracle_query (fam, _) -> (
      match Hashtbl.find_opt t.oracles fam with
      | None ->
          violation "oracle %s queried but no handler is installed" fam
      | Some f ->
          let counts =
            match t.oracle_queries with
            | Some c -> c
            | None ->
                let c = Hashtbl.create 8 in
                t.oracle_queries <- Some c;
                log t U_oracle_tbl;
                c
          in
          let k = (fam, pid) in
          let q = Hashtbl.find_opt counts k in
          log t (U_oracle (counts, k, q));
          Hashtbl.replace counts k (Option.value ~default:0 q + 1);
          f ~pid ~query:(Option.value ~default:0 q))
  | Op.Cas (fam, key, expected, desired) ->
      if not t.allow_cas then
        violation
          "compare&swap %a: consensus number is infinite, not allowed in \
           this model (pass ~allow_cas:true to host it)"
          Op.pp_info (info Op.Register fam key);
      let r = register t fam key in
      if !r = expected then begin
        log t (U_reg (r, !r));
        r := Some desired;
        true
      end
      else false

let peek_register t fam key =
  match Tbl.find_opt t.instances (fam, key) with
  | Some (I_register r) -> !r
  | Some _ | None -> None

let peek_snapshot t fam key =
  match Tbl.find_opt t.instances (fam, key) with
  | Some (I_snapshot a) -> Some (Array.copy a)
  | Some _ | None -> None

let cons_accessors t fam key =
  match Tbl.find_opt t.instances (fam, key) with
  | Some (I_cons c) -> List.sort compare c.accessors
  | Some _ | None -> []

let peek_ts t fam key =
  match Tbl.find_opt t.instances (fam, key) with
  | Some (I_ts r) -> !r
  | Some _ | None -> false

let cons_decided t fam key =
  match Tbl.find_opt t.instances (fam, key) with
  | Some (I_cons c) -> c.decided <> None
  | Some _ | None -> false

let queue_length t fam key =
  match Tbl.find_opt t.instances (fam, key) with
  | Some (I_queue q) -> List.length !q
  | Some _ | None -> 0

let instance_count t = Tbl.length t.instances

let copy_instance = function
  | I_register r -> I_register (ref !r)
  | I_snapshot a -> I_snapshot (Array.copy a)
  | I_ts r -> I_ts (ref !r)
  | I_cons c -> I_cons { decided = c.decided; accessors = c.accessors }
  | I_kset s ->
      I_kset
        { k = s.k; ports = s.ports; values = s.values; accessors = s.accessors }
  | I_queue q -> I_queue (ref !q)

let copy t =
  let instances = Tbl.create (Tbl.length t.instances) in
  Tbl.iter (fun k i -> Tbl.add instances k (copy_instance i)) t.instances;
  let oracle_queries = Option.map Hashtbl.copy t.oracle_queries in
  (* The journal references the *original* store's cells; a copy starts
     with journaling off rather than share (or replay) those pointers. *)
  { t with instances; oracle_queries; journaling = false; journal = [] }

(* ------------------------------------------------------------------ *)
(* Canonical state (fingerprinting)                                     *)
(* ------------------------------------------------------------------ *)

(* A pure value determining the store's future behaviour. Two soundness
   rules make fingerprints insensitive to access history:

   - instances still in their default state are dropped, because a
     default instance is observationally identical to one not yet
     created (lazy creation order cannot split equivalent states);
   - accessor lists are sorted: the store only ever asks "is pid a
     member" / "how many", i.e. set semantics.

   k-set [values] keep their order: the head decides once the object is
   full, so order is real state. *)

type canonical_instance =
  | C_register of Univ.t
  | C_snapshot of Univ.t option list
  | C_ts
  | C_cons of Univ.t option * int list
  | C_kset of Univ.t list * int list
  | C_queue of Univ.t list

type canonical = {
  c_instances : ((Op.fam * Op.key) * canonical_instance) list;
  c_oracle_queries : ((Op.fam * int) * int) list;
}

let canon_instance = function
  | I_register { contents = None } -> None
  | I_register { contents = Some v } -> Some (C_register v)
  | I_snapshot a ->
      if Array.for_all Option.is_none a then None
      else Some (C_snapshot (Array.to_list a))
  | I_ts { contents = false } -> None
  | I_ts { contents = true } -> Some C_ts
  | I_cons { decided = None; accessors = [] } -> None
  | I_cons { decided; accessors } ->
      Some (C_cons (decided, List.sort compare accessors))
  | I_kset { values = []; accessors = []; _ } -> None
  | I_kset { values; accessors; _ } ->
      Some (C_kset (values, List.sort compare accessors))
  | I_queue { contents = [] } -> None
  | I_queue { contents = vs } -> Some (C_queue vs)

let canonical t =
  let c_instances =
    Tbl.fold
      (fun key i acc ->
        match canon_instance i with None -> acc | Some c -> (key, c) :: acc)
      t.instances []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let c_oracle_queries =
    match t.oracle_queries with
    | None -> []
    | Some tbl ->
        Hashtbl.fold
          (fun k v acc -> if v = 0 then acc else (k, v) :: acc)
          tbl []
        |> List.sort compare
  in
  { c_instances; c_oracle_queries }

let state_hash t = Hashtbl.hash_param 1000 1000 (canonical t)
let observationally_equal a b = canonical a = canonical b

type instance_sig = canonical_instance

let instance_sig t fam key =
  match Tbl.find_opt t.instances (fam, key) with
  | None -> None
  | Some i -> canon_instance i

let canonical_parts c = (c.c_instances, c.c_oracle_queries)

let prewarm t infos =
  List.iter
    (fun (info : Op.info) ->
      let fam = info.fam and key = info.key in
      match info.kind with
      | Op.Register -> ignore (register t fam key)
      | Op.Snapshot -> ignore (snapshot t fam key)
      | Op.Test_and_set -> ignore (ts t fam key)
      | Op.Consensus -> ignore (cons t fam key)
      | Op.Kset -> ignore (kset t fam key)
      | Op.Queue -> ignore (queue t fam key)
      | Op.Oracle -> ())
    infos

let set_oracle t fam f = Hashtbl.replace t.oracles fam f

let preload_queue t fam key vs =
  let info = { Op.kind = Op.Queue; fam; key } in
  if t.x < 2 then violation "queue %a requires x >= 2" Op.pp_info info;
  match Tbl.find_opt t.instances (fam, key) with
  | Some _ -> invalid_arg "Env.preload_queue: instance already exists"
  | None ->
      Tbl.add t.instances (fam, key) (I_queue (ref vs));
      t.version <- t.version + 1
