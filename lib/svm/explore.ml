type 'a run = {
  outcomes : 'a Exec.outcome array;
  crashed : int list;
  truncated : bool;
  schedule : string;
}

type 'a result = {
  explored : int;
  counterexample : ('a run * string) option;
  exhausted_budget : bool;
  pruned_states : int;
  pruned_commutes : int;
  pruned_source : int;
}

type 'a pstate = Running of 'a Prog.t | Done of 'a | Crashed

type choice = Step of int | Crash of int

(* Steps by pid, then crashes by pid: the order sleep lists keep. *)
let compare_choice a b =
  match (a, b) with
  | Step p, Step q | Crash p, Crash q -> Int.compare p q
  | Step _, Crash _ -> -1
  | Crash _, Step _ -> 1

(* A choice's schedule text ("3", "X3"), written in place. *)
let rec add_pid buf p =
  if p >= 10 then add_pid buf (p / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (p mod 10)))

let add_choice buf = function
  | Step p -> add_pid buf p
  | Crash p ->
      Buffer.add_char buf 'X';
      add_pid buf p

exception Found

let heartbeat on_progress runs =
  match on_progress with None -> () | Some f -> f ~runs

(* ------------------------------------------------------------------ *)
(* Fingerprints: interned histories, store signatures, visited keys     *)
(* ------------------------------------------------------------------ *)

(* A process's continuation is a closure, so it cannot be compared — but
   programs are deterministic values, so the continuation is a function
   of the sequence of op results the process has received. Histories of
   encoded results therefore stand in for continuations in state keys.
   The encoding is typed per op constructor: two histories can only
   compare equal position-by-position, and equal prefixes imply the next
   op (hence the next result's type) is the same, so the comparison
   never confuses values of different types. A history is never stored
   as a list: each step names the pair (history so far, next result)
   with an interned id, so a whole history is one int (see [intern]
   below and [Visited.Intern]). *)
type enc =
  | E_unit
  | E_bool of bool
  | E_univ of Univ.t
  | E_univ_opt of Univ.t option
  | E_scan of Univ.t option list

let encode_result : type r. r Op.t -> r -> enc =
 fun op r ->
  match op with
  | Op.Reg_read _ -> E_univ_opt r
  | Op.Reg_write _ -> E_unit
  | Op.Snap_set _ -> E_unit
  | Op.Snap_scan _ -> E_scan (Array.to_list r)
  | Op.Ts _ -> E_bool r
  | Op.Cons_propose _ -> E_univ r
  | Op.Kset_propose _ -> E_univ r
  | Op.Queue_enq _ -> E_unit
  | Op.Queue_deq _ -> E_univ_opt r
  | Op.Cas _ -> E_bool r
  | Op.Oracle_query _ -> E_univ r
  | Op.Yield -> E_unit

(* What a process's next operation touches; the basis of both
   commutation (independence) relations. Oracle queries are keyed by
   the querying pid because the environment tracks per-(family, pid)
   query counts — two different processes querying the same oracle
   touch different cells. Every op but [Yield] names the one instance
   it acts on, so a footprint also tells [esig_step] which store entry
   a step can have changed. *)
type rfp =
  | R_none
  | R_oracle of Op.fam * int
  | R_read of Op.fam * Op.key
  | R_write of Op.fam * Op.key * Univ.t
  | R_cas of Op.fam * Op.key
  | R_snap_set of Op.fam * Op.key
  | R_snap_scan of Op.fam * Op.key
  | R_ts of Op.fam * Op.key
  | R_cons of Op.fam * Op.key * int
  | R_kset of Op.fam * Op.key
  | R_enq of Op.fam * Op.key
  | R_deq of Op.fam * Op.key

let rfootprint_op (type r) ~pid (op : r Op.t) =
  match op with
  | Op.Yield -> R_none
  | Op.Oracle_query (f, _) -> R_oracle (f, pid)
  | Op.Reg_read (f, k) -> R_read (f, k)
  | Op.Reg_write (f, k, v) -> R_write (f, k, v)
  | Op.Cas (f, k, _, _) -> R_cas (f, k)
  | Op.Snap_set (f, k, _) -> R_snap_set (f, k)
  | Op.Snap_scan (f, k) -> R_snap_scan (f, k)
  | Op.Ts (f, k) -> R_ts (f, k)
  | Op.Cons_propose (f, k, _) -> R_cons (f, k, pid)
  | Op.Kset_propose (f, k, _) -> R_kset (f, k)
  | Op.Queue_enq (f, k, _) -> R_enq (f, k)
  | Op.Queue_deq (f, k) -> R_deq (f, k)

(* An [Await] is footprinted as the [Step] it abbreviates: its op. *)
let rfootprint (type a) ~pid (prog : a Prog.t) =
  match prog with
  | Prog.Done _ -> R_none
  | Prog.Step (op, _) -> rfootprint_op ~pid op
  | Prog.Await (op, _) -> rfootprint_op ~pid op

(* Same shared-object location, without allocating the [option] pair
   an extraction function would — this runs once per (sleep entry ×
   explored branch). *)
let rsame_loc a b =
  match (a, b) with
  | ( ( R_read (f1, k1)
      | R_write (f1, k1, _)
      | R_cas (f1, k1)
      | R_snap_set (f1, k1)
      | R_snap_scan (f1, k1)
      | R_ts (f1, k1)
      | R_cons (f1, k1, _)
      | R_kset (f1, k1)
      | R_enq (f1, k1)
      | R_deq (f1, k1) ),
      ( R_read (f2, k2)
      | R_write (f2, k2, _)
      | R_cas (f2, k2)
      | R_snap_set (f2, k2)
      | R_snap_scan (f2, k2)
      | R_ts (f2, k2)
      | R_cons (f2, k2, _)
      | R_kset (f2, k2)
      | R_enq (f2, k2)
      | R_deq (f2, k2) ) ) ->
      String.equal f1 f2 && k1 = k2
  | _ -> false

(* Coarse (state-blind) independence: reads of one instance commute,
   anything else touching one instance conflicts, and distinct oracle
   cells commute. The plan engine's sleep sets use this relation alone;
   engine C consults it to tag entries that only its refined relation
   kept alive. *)
let coarse_indep_r a b =
  match (a, b) with
  | R_none, _ | _, R_none -> true
  | R_oracle (f1, p1), R_oracle (f2, p2) -> not (String.equal f1 f2 && p1 = p2)
  | R_oracle _, _ | _, R_oracle _ -> true
  | _ ->
      let is_read = function R_read _ | R_snap_scan _ -> true | _ -> false in
      (not (rsame_loc a b)) || (is_read a && is_read b)

let rloc = function
  | R_none | R_oracle _ -> None
  | R_read (f, k)
  | R_write (f, k, _)
  | R_cas (f, k)
  | R_snap_set (f, k)
  | R_snap_scan (f, k)
  | R_ts (f, k)
  | R_cons (f, k, _)
  | R_kset (f, k)
  | R_enq (f, k)
  | R_deq (f, k) ->
      Some (f, k)

(* The store fingerprint, maintained incrementally: the same two sorted
   association lists [Env.canonical] would produce, plus an XOR of a
   hash of every entry. One operation touches one instance, so a step
   updates one entry (sharing the untouched tail), and the XOR
   composition makes the hash delta O(1). Each entry caches its own
   hash so an update hashes only the new entry. [es_hash] is a pure
   function of the two lists, so it may sit inside the visited key:
   equal signatures always agree on it (and it doubles as a fast
   equality reject). Backtracking restores the previous value by
   pointer — the lists are immutable. *)
type esig = {
  es_inst : (int * (Op.fam * Op.key) * Env.instance_sig) list;
  es_orc : (int * (Op.fam * int) * int) list;
  es_hash : int;
}

let esig_of_canonical c =
  let inst, orc = Env.canonical_parts c in
  let inst = List.map (fun ((k, s) as e) -> (Hashtbl.hash e, k, s)) inst in
  let orc = List.map (fun ((k, n) as e) -> (Hashtbl.hash e, k, n)) orc in
  let xor l h = List.fold_left (fun h (eh, _, _) -> h lxor eh) h l in
  { es_inst = inst; es_orc = orc; es_hash = xor orc (xor inst 0) }

(* Sorted-assoc update with structural sharing: [Some s] inserts or
   replaces, [None] removes. Returns the new list (physically the input
   when nothing changed) and the XOR delta of entry hashes. *)
let rec sig_update key v l =
  match l with
  | [] -> (
      match v with
      | None -> (l, 0)
      | Some s ->
          let eh = Hashtbl.hash (key, s) in
          ([ (eh, key, s) ], eh))
  | ((eh', k', s') as e) :: tl -> (
      let c = compare key k' in
      if c < 0 then
        match v with
        | None -> (l, 0)
        | Some s ->
            let eh = Hashtbl.hash (key, s) in
            ((eh, key, s) :: l, eh)
      else if c = 0 then
        match v with
        | None -> (tl, eh')
        | Some s ->
            if s = s' then (l, 0)
            else
              let eh = Hashtbl.hash (key, s) in
              ((eh, key, s) :: tl, eh' lxor eh)
      else
        let tl', d = sig_update key v tl in
        if tl' == tl then (l, 0) else (e :: tl', d))

let rec orc_bump key l =
  match l with
  | [] ->
      let eh = Hashtbl.hash (key, 1) in
      ([ (eh, key, 1) ], eh)
  | ((eh', k', n) as e) :: tl ->
      let c = compare key k' in
      if c < 0 then
        let eh = Hashtbl.hash (key, 1) in
        ((eh, key, 1) :: l, eh)
      else if c = 0 then
        let eh = Hashtbl.hash (key, n + 1) in
        ((eh, key, n + 1) :: tl, eh' lxor eh)
      else
        let tl', d = orc_bump key tl in
        (e :: tl', d)

(* Advance the fingerprint across one applied operation, whose refined
   footprint names the single location it can have touched. Must run
   after [Env.apply] (it re-reads the touched instance). *)
let esig_step env es fp ~pid =
  match fp with
  | R_none -> es
  | R_oracle (f, _) ->
      let l, d = orc_bump (f, pid) es.es_orc in
      { es with es_orc = l; es_hash = es.es_hash lxor d }
  | _ -> (
      match rloc fp with
      | None -> es
      | Some (f, k) ->
          let l, d = sig_update (f, k) (Env.instance_sig env f k) es.es_inst in
          if l == es.es_inst then es
          else { es with es_inst = l; es_hash = es.es_hash lxor d })

(* The visited-state key, one type for both engines. Everything that
   determines the remainder of a run's record is in here: remaining
   depth budget (via [ck_depth]), crash order so far, each process's
   status, the store, and the sleep set (a state revisited with a
   different sleep set explores a different transition subset, so it
   must not be deduplicated against the first visit — including the
   sleep set in the key is the standard conservative fix). Only the
   schedule string falls outside the key, which is why properties must
   not read it (see the .mli).

   [ck_procs] is a flat int array: the interned history id while
   running (id equality is history equality, so hashing and comparing
   is O(1) in history length), [-1] crashed, [-2] finished (ids are
   never negative) — finished processes' decided values live in
   [ck_done], sorted by pid. The store is the incrementally-maintained
   [esig]. Sleep entries carry engine C's refinement tag (two visits
   that differ only in tags may split their prunes between its two
   counters); the plan engine's tags are always [false]. *)
type 'a ckey = {
  ck_depth : int;
  ck_crashed : int list;
  ck_procs : int array;
  ck_done : (int * 'a) list;
  ck_env : esig;
  ck_sleep : (choice * bool) list;
}

(* A hand-rolled hash so the per-arrival cost is O(key skeleton), not
   O(store): the env component contributes its precomputed [es_hash].
   Any pure function of the key is a valid visited-table hash. *)
let ckey_hash k =
  let h = ref ((k.ck_depth * 0x9e3779b9) lxor k.ck_env.es_hash) in
  let mix v = h := (!h * 31) lxor v in
  List.iter (fun p -> mix (p + 1)) k.ck_crashed;
  Array.iter mix k.ck_procs;
  List.iter (fun (p, v) -> mix ((p * 31) lxor Hashtbl.hash v)) k.ck_done;
  List.iter
    (fun (u, tag) ->
      let c = match u with Step p -> 2 * p | Crash p -> (2 * p) + 1 in
      mix ((4 * c) + if tag then 3 else 2))
    k.ck_sleep;
  !h

(* Insert a finished process's decided value, keeping the list sorted
   by pid so completion order cannot split equal states. *)
let rec dvals_add pid v = function
  | [] -> [ (pid, v) ]
  | (p, _) as e :: tl ->
      if pid < p then (pid, v) :: e :: tl else e :: dvals_add pid v tl

(* Sorted insert keeping the sleep list canonical by construction
   (choices are unique within a list, so ordering by choice is total).
   The sleep filters only keep, drop or retag entries in place, so
   sortedness is preserved down the tree and the visited key can embed
   the list as-is instead of sorting at every arrival. *)
let rec sleep_insert b = function
  | [] -> [ (b, false) ]
  | (u, _) as e :: tl ->
      if compare_choice b u < 0 then (b, false) :: e :: tl
      else e :: sleep_insert b tl

(* A branch's standing in a sleep list: absent, or asleep with its
   tag (see [rsleep_filter]) — constant constructors, so the per-branch
   lookup allocates nothing. *)
type sleeping = Awake | Asleep | Asleep_tagged

let rec sleep_lookup b = function
  | [] -> Awake
  | (u, tag) :: tl ->
      if compare_choice u b = 0 then if tag then Asleep_tagged else Asleep
      else sleep_lookup b tl

(* Crashing commutes with another process's step (same final state,
   same crash order) but never with another crash (the [crashed] list
   records crash order, which properties may observe). *)
let rsleep_filter_crash t_pid sleep =
  List.filter_map
    (fun ((u, _) as e) ->
      match u with
      | Crash _ -> None
      | Step q -> if q <> t_pid then Some e else None)
    sleep

(* The plan engine's history interning: a private, growable table per
   phase-A walk and per subtree run, so no task ever shares mutable
   state with another and no lookup takes a lock (engine C's shared
   [Visited.Intern] is one fixed block of buckets sized for a whole
   exploration, not for one task's few hundred histories). Id 0 names
   the empty history. A subtree numbers its ids from [i_next] at
   capture, above every id its root can hold: a task's histories only
   extend its root's, so the ids phase A handed out are never needed
   again below the root, and equal ids still mean equal histories
   throughout the task. *)
module Intern_tbl = Hashtbl.Make (struct
  type t = int * enc

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

type intern = { i_tbl : int Intern_tbl.t; mutable i_next : int }

let intern_create next = { i_tbl = Intern_tbl.create 256; i_next = next }

let intern_id it e =
  match Intern_tbl.find_opt it.i_tbl e with
  | Some i -> i
  | None ->
      let i = it.i_next in
      it.i_next <- i + 1;
      Intern_tbl.add it.i_tbl e i;
      i

(* A task-private visited table: [ckey_hash] up front, exact
   (polymorphic) equality on the bucket — collisions cost a
   comparison, never a wrong answer. *)
type 'a visited = (int, 'a ckey list) Hashtbl.t

let seen_or_add (tbl : 'a visited) (key : 'a ckey) =
  let h = ckey_hash key in
  match Hashtbl.find_opt tbl h with
  | Some keys when List.exists (fun k -> k = key) keys -> true
  | Some keys ->
      Hashtbl.replace tbl h (key :: keys);
      false
  | None ->
      Hashtbl.add tbl h [ key ];
      false

(* ------------------------------------------------------------------ *)
(* Commutation relations and the sleep filter                           *)
(* ------------------------------------------------------------------ *)

(* Refined independence. The coarse relation says two writes to the
   same instance conflict; many of them in fact commute, and for the
   single-writer snapshot objects at the heart of the paper's
   constructions — every process writes its own component — *all*
   sibling writes commute. The refined relation is evaluated against
   the current store state (Godefroid's conditional independence),
   which is sound exactly because the sleep filter runs at the state
   the two candidate operations would both execute from.

   Do the two *next* operations of two distinct processes commute at
   the current state of [env] — same final store and the same result
   delivered to each process, whichever goes first? Each rule below is
   an exact claim about [Env.apply]:
   - sibling [Snap_set]s write different components (writer
     discipline), so they always commute;
   - equal-value register writes leave the same store either way;
   - [Ts] on a won instance is a pure read returning [false];
   - [Cons_propose] on a decided instance returns the decision, but
     still *joins* the accessor set — commuting additionally needs the
     join to be harmless in both orders (both already accessors, or
     room for both under the port bound, the accessor list being
     canonically sorted);
   - enqueue and dequeue on a nonempty queue act on opposite ends;
     two dequeues on an empty queue are both no-op reads. *)
let rf_indep env a b =
  match (a, b) with
  | R_none, _ | _, R_none -> true
  | R_oracle (f1, p1), R_oracle (f2, p2) -> not (String.equal f1 f2 && p1 = p2)
  | R_oracle _, _ | _, R_oracle _ -> true
  | _ -> (
      (not (rsame_loc a b))
      ||
      match (a, b) with
      | R_read _, R_read _ -> true
      | R_snap_scan _, R_snap_scan _ -> true
      | R_snap_set _, R_snap_set _ -> true
      | R_write (_, _, v1), R_write (_, _, v2) -> v1 = v2
      | R_read (f, k), R_write (_, _, v) | R_write (f, k, v), R_read _ ->
          Env.peek_register env f k = Some v
      | R_ts (f, k), R_ts _ -> Env.peek_ts env f k
      | R_cons (f, k, p), R_cons (_, _, q) ->
          Env.cons_decided env f k
          &&
          let acc = Env.cons_accessors env f k in
          let joins =
            (if List.mem p acc then 0 else 1)
            + if List.mem q acc then 0 else 1
          in
          List.length acc + joins <= Env.x env
      | R_enq (f, k), R_deq _ | R_deq (f, k), R_enq _ ->
          Env.queue_length env f k > 0
      | R_deq (f, k), R_deq _ -> Env.queue_length env f k = 0
      | _ -> false)

(* Which sleeping transitions survive executing [Step t_pid], whose
   footprint is [fp_t]? A sleeping process has not moved since it
   entered the sleep set, so its footprint is read off [fps]: the
   refined footprint of every process's next operation at the current
   node ([R_none] for finished or crashed processes), computed once per
   node and shared by every branch's filter call. The filter runs
   BEFORE [Env.apply]: the refined rules are conditions on the state
   both candidate operations execute from. The coarse relation reads no
   store state, so for it the side of the step makes no difference.

   [refined] picks the relation. Under the refined one, entries are
   tagged: [true] means the entry's survival through some past filter
   relied on the refined relation where the coarse one would have
   evicted it. Pruning a tagged entry is a source-set cut (counted
   separately); the tag is part of the visited key, so the prune
   tallies stay functions of the key alone. Under the coarse relation
   no entry is ever tagged. Written as a direct recursion (not
   [List.filter_map]) so the hot path allocates no closure. *)
let rec rsleep_filter ~refined env states fps fp_t t_pid = function
  | [] -> []
  | ((u, tag) as e) :: tl -> (
      let tl = rsleep_filter ~refined env states fps fp_t t_pid tl in
      match u with
      | Crash q -> if q <> t_pid then e :: tl else tl
      | Step q -> (
          if q = t_pid then tl
          else
            match states.(q) with
            | Done _ | Crashed -> tl
            | Running _ ->
                let fu = fps.(q) in
                if not refined then
                  if coarse_indep_r fu fp_t then e :: tl else tl
                else if not (rf_indep env fu fp_t) then tl
                else if tag || coarse_indep_r fu fp_t then e :: tl
                else (u, true) :: tl))

(* ------------------------------------------------------------------ *)
(* The traversal, shared by both engines                                *)
(* ------------------------------------------------------------------ *)

(* A subtree root, owned outright by whichever worker runs it (a private
   env copy, private arrays), so no two workers ever share mutable
   state: phase A captures plan tasks as items, and work stealing splits
   them off. [w_branches = Some rest] resumes a split node's remaining
   branch list — the node's visited-table insertion already happened on
   the splitting worker, so the resume goes straight to the branch
   loop. [w_sched] is the schedule prefix of the root, as the dotted
   [add_choice] text, so terminals can render their schedule without
   carrying the choice list. *)
type 'a witem = {
  w_env : Env.t;
  w_states : 'a pstate array;
  w_pkey : int array;
  w_done : (int * 'a) list;
  w_esig : esig;
  w_depth : int;
  w_crashes : int;
  w_rev_crashed : int list;
  w_sched : string;
  w_sleep : (choice * bool) list;
  w_branches : choice list option;
}

let root_item (env0, progs) =
  {
    w_env = env0;
    w_states = Array.map (fun p -> Running p) progs;
    w_pkey = Array.make (Array.length progs) 0;
    w_done = [];
    w_esig = esig_of_canonical (Env.canonical env0);
    w_depth = 0;
    w_crashes = 0;
    w_rev_crashed = [];
    w_sched = "";
    w_sleep = [];
    w_branches = None;
  }

(* A walk's tallies: per worker in engine C, folded after the join (all
   deterministic in the clean, no-abort case — see the closure argument
   in DESIGN §14 — except [c_splits]),
   and per pass in the plan engine. *)
type cworker = {
  mutable c_runs : int;
  mutable c_truncated : int;
  mutable c_pruned_states : int;
  mutable c_pruned_commutes : int;
  mutable c_pruned_source : int;
  mutable c_splits : int;
  c_vstats : Visited.stats;
}

let fresh_cworker () =
  {
    c_runs = 0;
    c_truncated = 0;
    c_pruned_states = 0;
    c_pruned_commutes = 0;
    c_pruned_source = 0;
    c_splits = 0;
    c_vstats = Visited.fresh_stats ();
  }

(* What the two engines' passes differ in, fixed once per pass (an
   engine-C exploration, phase A, or one plan task):
   - [k_seen]: visited lookup-and-insert — engine C's shared {!Visited}
     table or a task-private [visited] ([None]: dedup and sleep sets
     off);
   - [k_intern]: names a (history so far, next result) pair —
     [Visited.Intern] or the task's [Intern_tbl];
   - [k_refined]: the sleep filter's relation (see [rsleep_filter]);
   - [k_run]: a terminal's accounting, handed every run that survives
     deduplication after the worker's run tallies; it raises [Abort]
     to end the walk;
   - [k_stop]: polled at every node and branch, so one worker's abort
     drains the others;
   - [k_frontier = Some (d, capture)]: phase A — a node at depth [d] is
     handed to [capture] as a root instead of expanded. *)
type 'a walk = {
  k_seen : (cworker -> 'a ckey -> bool) option;
  k_intern : int * enc -> int;
  k_refined : bool;
  k_max_steps : int;
  k_max_crashes : int;
  k_run : worker:int -> cworker -> 'a run -> unit;
  k_stop : bool Atomic.t;
  k_frontier : (int * ('a witem -> unit)) option;
}

exception Abort

(* Run one item to completion, or until [k_run] raises [Abort] (the env
   is then rolled back to the item's root). The tree is the same under
   every configuration: at each node every live pid's step, then —
   within the crash budget — its crash; a node with no live process,
   or at depth [k_max_steps], is a terminal. The env is mutated in
   place and undone through its journal on the way back up. [pool]
   turns on splitting: when a sibling worker is starving, the rest of
   the current node's branch list is pushed off as a new item. *)
let traverse (w : 'a walk) (acc : cworker) ?pool ~worker (it : 'a witem) =
  let dedup = w.k_seen <> None in
  let env = it.w_env in
  let states = it.w_states in
  (* [pkey] mirrors [states] as flat ints (history id / -1 crashed /
     -2 done), so a visited key's process component is one unboxed
     array copy. [dvals] carries finished processes' decided values,
     sorted by pid. [esig] is the store fingerprint. All three advance
     on descent (only while deduplicating) and restore (an int or
     pointer store) on backtrack. *)
  let pkey = it.w_pkey in
  let dvals = ref it.w_done in
  let esig = ref it.w_esig in
  (* The schedule rendered incrementally along the path: append on
     descent, truncate on backtrack. O(1) per step instead of a
     per-terminal list reversal and concat. *)
  let sbuf = Buffer.create 64 in
  Buffer.add_string sbuf it.w_sched;
  (* Branch choices, one of each per pid, shared by every node so a
     branch list allocates only its cons cells. *)
  let step_of = Array.init (Array.length states) (fun p -> Step p) in
  let crash_of = Array.init (Array.length states) (fun p -> Crash p) in
  let rec any_live i =
    i >= 0
    &&
    match states.(i) with
    | Running _ -> true
    | Done _ | Crashed -> any_live (i - 1)
  in
  let revisit depth rev_crashed sleep =
    match w.k_seen with
    | None -> false
    | Some seen ->
        seen acc
          {
            ck_depth = depth;
            ck_crashed = rev_crashed;
            ck_procs = Array.copy pkey;
            ck_done = !dvals;
            ck_env = !esig;
            ck_sleep = sleep;
          }
  in
  let snapshot depth crashes rev_crashed sleep branches =
    {
      w_env = Env.copy env;
      w_states = Array.copy states;
      w_pkey = Array.copy pkey;
      w_done = !dvals;
      w_esig = !esig;
      w_depth = depth;
      w_crashes = crashes;
      w_rev_crashed = rev_crashed;
      w_sched = Buffer.contents sbuf;
      w_sleep = sleep;
      w_branches = branches;
    }
  in
  let terminal ~truncated rev_crashed =
    let outcomes =
      Array.map
        (function
          | Running _ -> Exec.Blocked
          | Done v -> Exec.Decided v
          | Crashed -> Exec.Crashed)
        states
    in
    acc.c_runs <- acc.c_runs + 1;
    if truncated then acc.c_truncated <- acc.c_truncated + 1;
    w.k_run ~worker acc
      {
        outcomes;
        crashed = List.rev rev_crashed;
        truncated;
        schedule = Buffer.contents sbuf;
      }
  in
  (* The key's side of an applied op: the pid's history gains the
     result, and the store fingerprint follows the one location the
     op's footprint names (it re-reads that instance, so this runs
     after [Env.apply]). *)
  let advance (type r) fps pid saved_pk saved_es (op : r Op.t) (r : r) =
    if dedup then begin
      pkey.(pid) <- w.k_intern (saved_pk, encode_result op r);
      esig := esig_step env saved_es fps.(pid) ~pid
    end
  in
  let rec node depth crashes rev_crashed sleep resume =
    if Atomic.get w.k_stop then raise Abort;
    match resume with
    | Some branches ->
        expand (node_fps ()) depth crashes rev_crashed sleep branches
    | None -> (
        let live = any_live (Array.length states - 1) in
        if (not live) || depth >= w.k_max_steps then begin
          (* The sleep set is irrelevant at a terminal (no transitions),
             so terminals are keyed with an empty one: equal end states
             reached under different sleep sets are still one run. *)
          if revisit depth rev_crashed [] then
            acc.c_pruned_states <- acc.c_pruned_states + 1
          else terminal ~truncated:live rev_crashed
        end
        else if revisit depth rev_crashed sleep then
          acc.c_pruned_states <- acc.c_pruned_states + 1
        else
          match w.k_frontier with
          | Some (fd, capture) when depth >= fd ->
              capture (snapshot depth crashes rev_crashed sleep None)
          | _ ->
              (* Every live pid's step, each followed — within the crash
                 budget — by its crash, in pid order. *)
              let crash = crashes < w.k_max_crashes in
              let rec branches pid l =
                if pid < 0 then l
                else
                  branches (pid - 1)
                    (match states.(pid) with
                    | Running _ ->
                        step_of.(pid)
                        :: (if crash then crash_of.(pid) :: l else l)
                    | Done _ | Crashed -> l)
              in
              expand (node_fps ()) depth crashes rev_crashed sleep
                (branches (Array.length states - 1) []))
  and node_fps () =
    (* Refined footprints of every process's next op at this node,
       shared by all the node's branches (states are restored between
       descents, so they cannot go stale). Skipped when not dedup'ing:
       the filter and the store fingerprint are the only consumers. *)
    if not dedup then [||]
    else
      Array.mapi
        (fun pid s ->
          match s with
          | Running p -> rfootprint ~pid p
          | Done _ | Crashed -> R_none)
        states
  and expand fps depth crashes rev_crashed sleep = function
    | [] -> ()
    | b :: rest -> (
        if Atomic.get w.k_stop then raise Abort;
        match if dedup then sleep_lookup b sleep else Awake with
        | Asleep_tagged ->
            acc.c_pruned_source <- acc.c_pruned_source + 1;
            expand fps depth crashes rev_crashed sleep rest
        | Asleep ->
            acc.c_pruned_commutes <- acc.c_pruned_commutes + 1;
            expand fps depth crashes rev_crashed sleep rest
        | Awake ->
            (* [b] will be explored, so subsequent branches — run here
               or offloaded — see it asleep. *)
            let sleep' = if dedup then sleep_insert b sleep else sleep in
            let offloaded =
              match pool with
              | None -> false
              | Some pool ->
                  rest <> []
                  && Par.want_work pool
                  && Par.push pool ~worker
                       (snapshot depth crashes rev_crashed sleep' (Some rest))
            in
            if offloaded then acc.c_splits <- acc.c_splits + 1;
            let spos = Buffer.length sbuf in
            if spos > 0 then Buffer.add_char sbuf '.';
            add_choice sbuf b;
            (match b with
            | Step pid -> (
                match states.(pid) with
                | Running prog ->
                    let child_sleep =
                      if dedup then
                        rsleep_filter ~refined:w.k_refined env states fps
                          fps.(pid) pid sleep
                      else []
                    in
                    let cp = Env.checkpoint env in
                    let saved_pk = pkey.(pid) in
                    let saved_dv = !dvals in
                    let saved_es = !esig in
                    (match prog with
                    | Prog.Done v ->
                        states.(pid) <- Done v;
                        if dedup then begin
                          pkey.(pid) <- -2;
                          dvals := dvals_add pid v saved_dv
                        end
                    | Prog.Step (op, k) ->
                        let r = Env.apply env ~pid op in
                        advance fps pid saved_pk saved_es op r;
                        states.(pid) <- Running (k r)
                    | Prog.Await (op, pred) -> (
                        (* The [Step] it abbreviates, run in place: a
                           failed try leaves the pid on the same node. *)
                        let r = Env.apply env ~pid op in
                        advance fps pid saved_pk saved_es op r;
                        match pred r with
                        | Some next -> states.(pid) <- Running next
                        | None -> ()));
                    node (depth + 1) crashes rev_crashed child_sleep None;
                    Env.rollback env cp;
                    states.(pid) <- Running prog;
                    pkey.(pid) <- saved_pk;
                    dvals := saved_dv;
                    esig := saved_es
                | Done _ | Crashed -> assert false)
            | Crash pid ->
                let saved = states.(pid) in
                let saved_pk = pkey.(pid) in
                states.(pid) <- Crashed;
                pkey.(pid) <- -1;
                let child_sleep =
                  if dedup then rsleep_filter_crash pid sleep else []
                in
                node (depth + 1) (crashes + 1) (pid :: rev_crashed) child_sleep
                  None;
                states.(pid) <- saved;
                pkey.(pid) <- saved_pk);
            Buffer.truncate sbuf spos;
            if not offloaded then
              expand fps depth crashes rev_crashed sleep' rest)
  in
  Env.enable_journal env;
  let cp0 = Env.checkpoint env in
  (try node it.w_depth it.w_crashes it.w_rev_crashed it.w_sleep it.w_branches
   with Abort -> Env.rollback env cp0);
  Env.disable_journal env

(* ------------------------------------------------------------------ *)
(* The plan engine: frontier tasks and deterministic merging            *)
(* ------------------------------------------------------------------ *)

(* The plan engine runs the traversal in its own configuration: the
   coarse relation, task-private tables (so no task ever shares mutable
   state with another, and what a task answers depends on its root
   alone) and per-task accounting. *)

type task_summary = {
  ts_leaf : bool;
  ts_runs : int;
  ts_truncated : int;
  ts_cex : bool;
  ts_pruned_states : int;
  ts_pruned_commutes : int;
  ts_exhausted : bool;
}

(* A plan task: a run resolved above the frontier (its summary, and its
   counterexample if it violates), or a subtree root with the first
   history id its own intern table may hand out. *)
type 'a task =
  | T_leaf of task_summary * ('a run * string) option
  | T_subtree of 'a witem * int

let plan_walk ~dedup ~max_steps ~max_crashes ~intern ~frontier k_run =
  {
    k_seen =
      (if dedup then
         let tbl = Hashtbl.create 512 in
         Some (fun _ key -> seen_or_add tbl key)
       else None);
    k_intern = intern_id intern;
    k_refined = false;
    k_max_steps = max_steps;
    k_max_crashes = max_crashes;
    k_run;
    k_stop = Atomic.make false;
    k_frontier = frontier;
  }

(* The depth every plan is sliced at: a constant, so a plan — and what
   a task index denotes — is a function of the exploration's parameters
   alone. *)
let phase_a_depth = 3

(* ------------------------------------------------------------------ *)
(* Sharding hooks: a plan is the jobs-independent slicing of the tree   *)
(* ------------------------------------------------------------------ *)

(* Everything the merge needs, computed once. The plan is built by the
   same phase-A walk regardless of who executes the tasks (in-process
   domains, or worker processes in [Dist]); because phase A is
   deterministic, a job queue and its worker processes construct the
   very same plan from the same parameters, and a task index is a
   complete description of a unit of work. *)
type 'a plan = {
  pl_tasks : 'a task array;
  pl_phase_pruned_states : int;
  pl_phase_pruned_commutes : int;
  pl_dedup : bool;
  pl_max_steps : int;
  pl_max_crashes : int;
  pl_max_runs : int;
  pl_property : 'a run -> (unit, string) Stdlib.result;
}

(* Phase A: walk the tree sequentially down to [phase_a_depth], with
   the same dedup/sleep machinery, emitting work in DFS order — runs
   completing above the frontier come out as already-resolved leaf
   tasks, frontier nodes as subtree tasks. The frontier depth must not
   depend on [jobs], or different job counts would slice the tree
   differently; it never does. Nor does the walk depend on the run
   budget: a subtree the sleep sets block yields no run at all, so no
   count of tasks bounds the runs the merge will still need. Only a
   counterexample ends the walk early — no task after it can ever be
   merged. *)
let plan ?(max_crashes = 0) ?(max_runs = 2_000_000) ?(dedup = true)
    ~max_steps ~make ~property () =
  let emitted = ref [] in
  let emit e = emitted := e :: !emitted in
  let intern = intern_create 1 in
  let leaf ~worker:_ _ run =
    let cex =
      match property run with Ok () -> None | Error msg -> Some (run, msg)
    in
    emit
      (T_leaf
         ( {
             ts_leaf = true;
             ts_runs = 1;
             ts_truncated = (if run.truncated then 1 else 0);
             ts_cex = cex <> None;
             ts_pruned_states = 0;
             ts_pruned_commutes = 0;
             ts_exhausted = false;
           },
           cex ));
    if cex <> None then raise Abort
  in
  let capture root = emit (T_subtree (root, intern.i_next)) in
  let w =
    plan_walk ~dedup ~max_steps ~max_crashes ~intern
      ~frontier:(Some (phase_a_depth, capture))
      leaf
  in
  let acc = fresh_cworker () in
  traverse w acc ~worker:0 (root_item (make ()));
  {
    pl_tasks = Array.of_list (List.rev !emitted);
    pl_phase_pruned_states = acc.c_pruned_states;
    pl_phase_pruned_commutes = acc.c_pruned_commutes;
    pl_dedup = dedup;
    pl_max_steps = max_steps;
    pl_max_crashes = max_crashes;
    pl_max_runs = max_runs;
    pl_property = property;
  }

let plan_tasks p = Array.length p.pl_tasks

(* Explore one captured subtree to completion, or to its first
   counterexample or the per-task run cap. The root is never consumed:
   the walk runs on copies of its arrays and rolls the (task-private)
   env back to the root on the way out, so running the same subtree
   twice gives the same answer — the merge relies on this to recompute
   any task the pool skipped. Tasks carry no registry of their own: the
   merge accounts metrics from the per-task summaries, which is what
   lets a remote worker ship seven integers instead of a registry and
   still merge byte-identically. *)
let run_subtree p root next_id =
  let cex = ref None in
  let exhausted = ref false in
  let finish ~worker:_ acc run =
    match p.pl_property run with
    | Error msg ->
        cex := Some (run, msg);
        raise Abort
    | Ok () ->
        if acc.c_runs >= p.pl_max_runs then begin
          exhausted := true;
          raise Abort
        end
  in
  let w =
    plan_walk ~dedup:p.pl_dedup ~max_steps:p.pl_max_steps
      ~max_crashes:p.pl_max_crashes ~intern:(intern_create next_id)
      ~frontier:None finish
  in
  let acc = fresh_cworker () in
  traverse w acc ~worker:0
    {
      root with
      w_states = Array.copy root.w_states;
      w_pkey = Array.copy root.w_pkey;
    };
  ( {
      ts_leaf = false;
      ts_runs = acc.c_runs;
      ts_truncated = acc.c_truncated;
      ts_cex = !cex <> None;
      ts_pruned_states = acc.c_pruned_states;
      ts_pruned_commutes = acc.c_pruned_commutes;
      ts_exhausted = !exhausted;
    },
    !cex )

(* Execute one task of the plan. Leaves were resolved during phase A;
   subtrees are re-runnable any number of times (see [run_subtree]), so
   a skipped or remotely-computed task can always be recomputed here. *)
let task_outcome p i =
  match p.pl_tasks.(i) with
  | T_leaf (s, cex) -> (s, cex)
  | T_subtree (root, next_id) -> run_subtree p root next_id

(* Merge strictly in task (= DFS) order. Budget and counterexample
   cut-offs are decided here, from per-task totals, so the outcome is a
   pure function of the summaries — identical at any job count, and
   identical whether summaries came from domains or worker processes.
   [outcome_of] must supply the full counterexample for tasks whose
   summary says [ts_cex]; a caller holding only a remote summary re-runs
   that task locally ([task_outcome] is deterministic). Metrics are
   accounted from the summaries: leaves always create [explore.runs]
   (their single run), subtrees create run counters only when non-zero
   but always create both pruning counters — mirroring what a per-task
   registry used to record, so snapshots are stable across versions. *)
let merge_plan ?metrics ?on_progress p ~outcome_of =
  let ntasks = Array.length p.pl_tasks in
  let explored = ref 0 in
  let truncated = ref 0 in
  let pruned_s = ref p.pl_phase_pruned_states in
  let pruned_c = ref p.pl_phase_pruned_commutes in
  let cex = ref None in
  let exhausted = ref false in
  (try
     for i = 0 to ntasks - 1 do
       if !explored >= p.pl_max_runs then begin
         exhausted := true;
         raise Found
       end;
       let (s : task_summary), c = outcome_of i in
       explored := !explored + s.ts_runs;
       truncated := !truncated + s.ts_truncated;
       pruned_s := !pruned_s + s.ts_pruned_states;
       pruned_c := !pruned_c + s.ts_pruned_commutes;
       (match metrics with
       | Some m ->
           if s.ts_leaf then begin
             Metrics.incr ~by:s.ts_runs (Metrics.counter m "explore.runs");
             if s.ts_truncated > 0 then
               Metrics.incr ~by:s.ts_truncated
                 (Metrics.counter m "explore.truncated");
             if s.ts_cex then
               Metrics.incr (Metrics.counter m "explore.counterexamples")
           end
           else begin
             if s.ts_runs > 0 then
               Metrics.incr ~by:s.ts_runs (Metrics.counter m "explore.runs");
             if s.ts_truncated > 0 then
               Metrics.incr ~by:s.ts_truncated
                 (Metrics.counter m "explore.truncated");
             if s.ts_cex then
               Metrics.incr (Metrics.counter m "explore.counterexamples");
             Metrics.incr ~by:s.ts_pruned_states
               (Metrics.counter m "explore.pruned_states");
             Metrics.incr ~by:s.ts_pruned_commutes
               (Metrics.counter m "explore.pruned_commutes")
           end
       | None -> ());
       heartbeat on_progress !explored;
       if s.ts_cex then begin
         (match c with
         | Some c -> cex := Some c
         | None ->
             (* the summary says this task found the counterexample, so a
                local deterministic re-run recovers the full record *)
             cex := snd (task_outcome p i));
         raise Found
       end;
       if s.ts_exhausted then begin
         exhausted := true;
         raise Found
       end
     done;
     if !explored >= p.pl_max_runs then exhausted := true
   with Found -> ());
  Metrics.bump metrics "explore.pruned_states" ~by:p.pl_phase_pruned_states;
  Metrics.bump metrics "explore.pruned_commutes"
    ~by:p.pl_phase_pruned_commutes;
  (* The plan engine has no source-set pruning; create the counter
     anyway (at zero) so snapshots have the same membership whichever
     engine produced the result. *)
  Metrics.bump metrics "explore.pruned_source" ~by:0;
  {
    explored = !explored;
    counterexample = !cex;
    exhausted_budget = !exhausted;
    pruned_states = !pruned_s;
    pruned_commutes = !pruned_c;
    pruned_source = 0;
  }

(* The plan-engine executor: phase-A slicing, indexed fan-out, in-order
   merge. This is the canonical semantics [exhaustive] promises — the
   sharded twin of what [Dist] workers run — and the fallback the
   work-stealing engine defers to the moment a counterexample, the run
   budget, or an exception enters the picture. *)
let exhaustive_plan ?max_crashes ?max_runs ?metrics ?on_progress ?(jobs = 1)
    ?oversubscribe ?dedup ~max_steps ~make ~property () =
  let p = plan ?max_crashes ?max_runs ?dedup ~max_steps ~make ~property () in
  let ntasks = plan_tasks p in
  (* Lowest task index found to end the merge so far — a counterexample,
     or a task that hit the run cap on its own: the merge stops there,
     so any task beyond it is dead work and workers skip it.
     Monotonically decreasing, hence safe to race on. *)
  let cut = Atomic.make max_int in
  let rec note_cut i =
    let cur = Atomic.get cut in
    if i < cur && not (Atomic.compare_and_set cut cur i) then note_cut i
  in
  let run_task i =
    let ((s, _) as outcome) = task_outcome p i in
    if s.ts_cex || s.ts_exhausted then note_cut i;
    outcome
  in
  let results =
    Par.run ~jobs ?oversubscribe
      ~skip:(fun i -> i > Atomic.get cut)
      ~tasks:ntasks run_task
  in
  merge_plan ?metrics ?on_progress p ~outcome_of:(fun i ->
      match results.(i) with Some r -> r | None -> task_outcome p i)

(* ------------------------------------------------------------------ *)
(* Engine C: shared visited table + work stealing + source-set pruning  *)
(* ------------------------------------------------------------------ *)

(* Engine C runs the traversal with one visited table and one intern
   table shared by every domain, the refined (tagged) sleep filter, and
   splitting on. Its one-way abort: a counterexample, the run budget,
   or any exception flips [stop], every worker drains, and the pass is
   re-run by the plan engine — whose result in exactly those cases is
   the documented semantics. *)
let exhaustive ?max_crashes ?max_runs ?metrics ?on_progress ?(jobs = 1)
    ?(oversubscribe = false) ?(dedup = true) ~max_steps ~make ~property () =
  let run_cap = Option.value max_runs ~default:2_000_000 in
  let runs = Atomic.make 0 in
  let stop = Atomic.make false in
  let abort () =
    Atomic.set stop true;
    raise Abort
  in
  let intern = Visited.Intern.create () in
  let w =
    {
      k_seen =
        (if dedup then
           let tbl = Visited.create ~buckets:131072 () in
           Some
             (fun acc key ->
               Visited.seen_or_add tbl ~hash:(ckey_hash key) key acc.c_vstats)
         else None);
      k_intern =
        (fun e ->
          Visited.Intern.id intern ~hash:(Hashtbl.hash_param 64 256 e) e);
      k_refined = true;
      k_max_steps = max_steps;
      k_max_crashes = Option.value max_crashes ~default:0;
      k_run =
        (fun ~worker _ run ->
          let total = Atomic.fetch_and_add runs 1 + 1 in
          (match property run with
          | Ok () -> ()
          | Error _ -> abort ()
          | exception _ -> abort ());
          if total >= run_cap then abort ();
          if worker = 0 then heartbeat on_progress total);
      k_stop = stop;
      k_frontier = None;
    }
  in
  let njobs =
    if jobs < 1 then invalid_arg "Explore.exhaustive: jobs must be >= 1";
    if oversubscribe then jobs
    else min jobs (Domain.recommended_domain_count ())
  in
  let accs = Array.init njobs (fun _ -> fresh_cworker ()) in
  let pool =
    Par.run_dynamic ~jobs:njobs ~oversubscribe:true
      ~roots:[ root_item (make ()) ]
      (fun pool ~worker it ->
        if not (Atomic.get stop) then traverse w accs.(worker) ~pool ~worker it)
  in
  if Atomic.get stop then
    (* A counterexample, the run budget, or an exception: defer to the
       plan engine, whose in-order merge defines the result (the
       DFS-first counterexample, the sequential budget semantics, the
       original exception). Nothing from the aborted pass is kept —
       no metrics were recorded yet. *)
    exhaustive_plan ?max_crashes ?max_runs ?metrics ?on_progress ~jobs
      ~oversubscribe ~dedup ~max_steps ~make ~property ()
  else begin
    let sum f = Array.fold_left (fun n a -> n + f a) 0 accs in
    let explored = sum (fun a -> a.c_runs) in
    let truncated = sum (fun a -> a.c_truncated) in
    let pruned_states = sum (fun a -> a.c_pruned_states) in
    let pruned_commutes = sum (fun a -> a.c_pruned_commutes) in
    let pruned_source = sum (fun a -> a.c_pruned_source) in
    let hits = sum (fun a -> a.c_vstats.Visited.hits) in
    let misses = sum (fun a -> a.c_vstats.Visited.misses) in
    (match metrics with
    | None -> ()
    | Some m ->
        Metrics.bump metrics "explore.runs" ~by:explored;
        if truncated > 0 then
          Metrics.bump metrics "explore.truncated" ~by:truncated;
        Metrics.bump metrics "explore.pruned_states" ~by:pruned_states;
        Metrics.bump metrics "explore.pruned_commutes" ~by:pruned_commutes;
        Metrics.bump metrics "explore.pruned_source" ~by:pruned_source;
        Metrics.bump metrics "explore.visited.hits" ~by:hits;
        Metrics.bump metrics "explore.visited.misses" ~by:misses;
        (* Timing-dependent tallies: only when the registry accepts
           wall-clock-ish values, so snapshot-compared runs stay
           byte-identical at any job count. *)
        if Metrics.wall_clock m then begin
          Metrics.bump metrics "explore.par.steals" ~by:(Par.steals pool);
          Metrics.bump metrics "explore.par.splits"
            ~by:(sum (fun a -> a.c_splits));
          Array.iteri
            (fun i a ->
              Metrics.bump metrics
                (Printf.sprintf "explore.par.d%d.runs" i)
                ~by:a.c_runs;
              Metrics.bump metrics
                (Printf.sprintf "explore.par.d%d.visited_hits" i)
                ~by:a.c_vstats.Visited.hits;
              Metrics.bump metrics
                (Printf.sprintf "explore.par.d%d.visited_misses" i)
                ~by:a.c_vstats.Visited.misses)
            accs
        end);
    {
      explored;
      counterexample = None;
      exhausted_budget = false;
      pruned_states;
      pruned_commutes;
      pruned_source;
    }
  end

(* ------------------------------------------------------------------ *)
(* Systematic fault-box sweeping under online monitors                  *)
(* ------------------------------------------------------------------ *)

type fault_point = { victim : int; op : int; kind : Adversary.fault_kind }

type fault_schedule = { scheduler : string; faults : fault_point list }

let pp_fault_point ppf { victim; op; kind } =
  Format.fprintf ppf "p%d@op%d%s" victim op
    (match kind with
    | Adversary.Crash_stop -> ""
    | k -> ":" ^ Adversary.fault_kind_name k)

let pp_fault_schedule ppf { scheduler; faults } =
  Format.fprintf ppf "%s + [%s]" scheduler
    (String.concat "; "
       (List.map (Format.asprintf "%a" pp_fault_point) faults))

type found = {
  fault : fault_schedule;
  shrunk : fault_schedule;
  violation : Monitor.violation;  (** from the run of the shrunk schedule *)
  shrink_runs : int;
  replay : string;
}

type sweep_outcome = {
  runs : int;
  found : found option;
  deadlock : fault_schedule option;
  exhausted : bool;
}

let default_schedulers ~nprocs =
  [
    ("round-robin", fun () -> Adversary.round_robin ());
    ("priority-asc", fun () -> Adversary.priority (List.init nprocs Fun.id));
    ( "priority-desc",
      fun () -> Adversary.priority (List.rev (List.init nprocs Fun.id)) );
    ("random(1)", fun () -> Adversary.random ~seed:1);
    ("random(2)", fun () -> Adversary.random ~seed:2);
  ]

type verdict = Clean | Deadlocked | Violating of Monitor.violation

let fault_adversary base faults =
  Adversary.with_faults base
    (List.map
       (fun { victim; op; kind } ->
         {
           Adversary.kind;
           trigger = Adversary.Crash_at_local { pid = victim; step = op };
         })
       faults)

let judge ?(budget = 20_000) ?(record_trace = false) ~monitors ~env ~adversary
    progs =
  match Exec.run ~budget ~record_trace ~monitors ~env ~adversary progs with
  | r ->
      (* "All processes stuck" is a finding of the omission tier, not a
         crash of the checker: the run ended with nobody decided and
         nobody even runnable. *)
      let halted =
        Array.for_all
          (function
            | Exec.Crashed | Exec.Stuck -> true
            | Exec.Decided _ | Exec.Blocked -> false)
          r.Exec.outcomes
      in
      if halted && r.Exec.stuck <> [] then Deadlocked else Clean
  | exception Monitor.Violation v -> Violating v
  | exception Adversary.Deadlock -> Deadlocked

(* One fault run on a fresh environment. Only [run_fault] records a
   trace: a sweep cell's verdict needs none, and the one trace a sweep
   reads — its first violation's — [finding] re-derives by re-running
   that cell. *)
let fault_verdict ~record_trace ?budget ~make ~monitors ~scheduler faults =
  let env, progs = make () in
  let adversary = fault_adversary (scheduler ()) faults in
  judge ?budget ~record_trace ~monitors:(monitors ()) ~env ~adversary progs

let run_fault ?budget ~make ~monitors ~scheduler faults =
  fault_verdict ~record_trace:true ?budget ~make ~monitors ~scheduler faults

(* Delta-debugging: drop fault points, then weaken surviving fault kinds
   toward plain crash-stop, then pull the op-indices toward 0, then try
   collapsing the scheduler to round-robin. The scheduler is resolved
   once up front, every candidate — including the scheduler collapse —
   is validated through the same [attempt] path, and the last accepted
   (schedule, violation) pair is carried through, so the result is a
   genuine violating schedule with its own violation. *)
let shrink ?budget ~make ~monitors ~schedulers fault violation0 =
  let runs = ref 0 in
  let best = ref (fault, violation0) in
  let resolve name =
    match List.assoc_opt name schedulers with
    | Some s -> Some (name, s)
    | None -> None
  in
  let attempt (name, scheduler) faults =
    incr runs;
    match run_fault ?budget ~make ~monitors ~scheduler faults with
    | Violating v ->
        best := ({ scheduler = name; faults }, v);
        true
    | Clean | Deadlocked -> false
  in
  let sched =
    match resolve fault.scheduler with
    | Some s -> s
    | None ->
        invalid_arg
          (Printf.sprintf "Explore.shrink: scheduler %S is not in schedulers"
             fault.scheduler)
  in
  let violates faults = attempt sched faults in
  let rec drop_points faults =
    let rec try_drop i =
      if i >= List.length faults then faults
      else
        let candidate = List.filteri (fun j _ -> j <> i) faults in
        if violates candidate then drop_points candidate else try_drop (i + 1)
    in
    try_drop 0
  in
  let weaken_kinds faults =
    List.mapi
      (fun i p ->
        if p.kind = Adversary.Crash_stop then p
        else
          let weakened = { p with kind = Adversary.Crash_stop } in
          let candidate =
            List.mapi (fun j q -> if j = i then weakened else q) faults
          in
          if violates candidate then weakened else p)
      faults
  in
  let lower_indices faults =
    List.mapi
      (fun i p ->
        let rec lowest cand =
          if cand >= p.op then p
          else
            let candidate =
              List.mapi
                (fun j q -> if j = i then { p with op = cand } else q)
                faults
            in
            if violates candidate then { p with op = cand }
            else lowest (cand + 1)
        in
        lowest 0)
      faults
  in
  let faults = lower_indices (weaken_kinds (drop_points fault.faults)) in
  (if fault.scheduler <> "round-robin" then
     match resolve "round-robin" with
     | Some rr -> ignore (attempt rr faults : bool)
     | None -> ());
  let shrunk, violation = !best in
  (shrunk, violation, !runs)

let finding ?budget ~make ~monitors ~schedulers ~meta fault =
  let scheduler =
    match List.assoc_opt fault.scheduler schedulers with
    | Some s -> s
    | None ->
        invalid_arg
          (Printf.sprintf "Explore.finding: scheduler %S is not in schedulers"
             fault.scheduler)
  in
  let v =
    match run_fault ?budget ~make ~monitors ~scheduler fault.faults with
    | Violating v -> v
    | Clean | Deadlocked ->
        invalid_arg
          (Format.asprintf
             "Explore.finding: %a violated once and not on its traced re-run"
             pp_fault_schedule fault)
  in
  let shrunk, violation, shrink_runs =
    shrink ?budget ~make ~monitors ~schedulers fault v
  in
  let t =
    match violation.Monitor.trace with
    | Some t -> t
    | None -> Trace.create () (* run_fault records traces *)
  in
  let replay =
    Trace.to_replay
      ~meta:
        (meta
        @ [
            ("monitor", violation.Monitor.monitor);
            ("message", violation.Monitor.message);
            ("step", string_of_int violation.Monitor.step);
            ("pid", string_of_int violation.Monitor.pid);
            ("schedule", Format.asprintf "%a" pp_fault_schedule shrunk);
          ])
      t
  in
  { fault; shrunk; violation; shrink_runs; replay }

let fault_sets ~nprocs ~kinds ~max_faults ~op_window =
  let kinds = match kinds with [] -> [ Adversary.Crash_stop ] | ks -> ks in
  let rec assignments = function
    | [] -> [ [] ]
    | pid :: rest ->
        let tails = assignments rest in
        List.concat_map
          (fun kind ->
            List.concat_map
              (fun op ->
                List.map (fun tl -> { victim = pid; op; kind } :: tl) tails)
              (List.init op_window Fun.id))
          kinds
  in
  let sizes = List.init (max 0 max_faults) (fun s -> s + 1) in
  [] (* the fault-free schedule first *)
  :: List.concat_map
       (fun size ->
         Combin.subsets ~n:nprocs ~size |> List.concat_map assignments)
       sizes

(* ------------------------------------------------------------------ *)
(* Sweep sharding hooks: the cell grid and the in-order merge           *)
(* ------------------------------------------------------------------ *)

(* The flattened scheduler × fault-set product, in sweep order. Like an
   exploration {!plan}, the grid is a pure function of the sweep
   parameters: a job queue and its worker processes enumerate the
   same descriptors, so a cell index fully identifies one run. *)
type 'a sweep_plan = {
  sp_make : unit -> Env.t * 'a Prog.t array;
  sp_monitors : unit -> 'a Monitor.t list;
  sp_schedulers : (string * (unit -> Adversary.t)) list;
  sp_descriptors : (string * (unit -> Adversary.t) * fault_point list) array;
  sp_budget : int option;
  sp_meta : (string * string) list;
  sp_max_runs : int;
}

let sweep_plan ?(kinds = [ Adversary.Crash_stop ]) ?(max_faults = 1)
    ?(op_window = 6) ?(max_runs = 5_000) ?budget ?schedulers ?(meta = [])
    ~make ~monitors () =
  let env0, _ = make () in
  let nprocs = Env.nprocs env0 in
  let schedulers =
    match schedulers with
    | Some s -> s
    | None -> default_schedulers ~nprocs
  in
  let fault_box = fault_sets ~nprocs ~kinds ~max_faults ~op_window in
  (* Flatten the scheduler × fault-set product into run descriptors in
     sweep order; each descriptor is one independent run (fresh env,
     programs, monitors, adversary), so runs parallelise with no shared
     state and the merge reads verdicts back in sweep order —
     byte-identical outcomes at any job or worker count. *)
  let descriptors =
    List.concat_map
      (fun (sched_name, scheduler) ->
        List.map (fun faults -> (sched_name, scheduler, faults)) fault_box)
      schedulers
    |> Array.of_list
  in
  {
    sp_make = make;
    sp_monitors = monitors;
    sp_schedulers = schedulers;
    sp_descriptors = descriptors;
    sp_budget = budget;
    sp_meta = meta;
    sp_max_runs = max_runs;
  }

let sweep_cells p = min (Array.length p.sp_descriptors) p.sp_max_runs

let sweep_cell p i =
  let _, scheduler, faults = p.sp_descriptors.(i) in
  fault_verdict ~record_trace:false ?budget:p.sp_budget ~make:p.sp_make
    ~monitors:p.sp_monitors ~scheduler faults

let sweep_cell_schedule p i =
  let sched_name, _, faults = p.sp_descriptors.(i) in
  { scheduler = sched_name; faults }

(* In-order merge of per-cell verdicts. [verdict_of] may be backed by
   in-process results or by tags shipped from worker processes. Cell
   verdicts are untraced; {!finding} re-runs the first [Violating] cell
   traced — deterministic: fresh environment, scheduler and monitors —
   and shrinks from that run's violation. *)
let sweep_merge ?metrics ?on_progress p ~verdict_of =
  let n_dispatch = sweep_cells p in
  let runs = ref 0 in
  let found = ref None in
  let deadlock = ref None in
  let exhausted = ref false in
  (try
     for i = 0 to n_dispatch - 1 do
       let verdict = verdict_of i in
       incr runs;
       Metrics.bump metrics "sweep.runs";
       heartbeat on_progress !runs;
       let sched_name, _, faults = p.sp_descriptors.(i) in
       match verdict with
       | Clean -> Metrics.bump metrics "sweep.verdict.clean"
       | Deadlocked ->
           Metrics.bump metrics "sweep.verdict.deadlocked";
           if !deadlock = None then
             deadlock := Some { scheduler = sched_name; faults }
       | Violating _ ->
           Metrics.bump metrics "sweep.verdict.violating";
           let f =
             finding ?budget:p.sp_budget ~make:p.sp_make
               ~monitors:p.sp_monitors ~schedulers:p.sp_schedulers
               ~meta:p.sp_meta
               { scheduler = sched_name; faults }
           in
           Metrics.bump metrics "sweep.shrink_runs" ~by:f.shrink_runs;
           found := Some f;
           raise Found
     done;
     if Array.length p.sp_descriptors > p.sp_max_runs then exhausted := true
   with Found -> ());
  {
    runs = !runs;
    found = !found;
    deadlock = !deadlock;
    exhausted = !exhausted;
  }

let sweep_faults ?kinds ?max_faults ?op_window ?max_runs ?budget ?schedulers
    ?meta ?metrics ?on_progress ?(jobs = 1) ?oversubscribe ~make ~monitors ()
    =
  let p =
    sweep_plan ?kinds ?max_faults ?op_window ?max_runs ?budget ?schedulers
      ?meta ~make ~monitors ()
  in
  let n_dispatch = sweep_cells p in
  let best = Atomic.make max_int in
  let rec note_violating i =
    let cur = Atomic.get best in
    if i < cur && not (Atomic.compare_and_set best cur i) then
      note_violating i
  in
  let run_one i =
    match sweep_cell p i with
    | Violating _ as v ->
        note_violating i;
        v
    | v -> v
  in
  let results =
    Par.run ~jobs ?oversubscribe
      ~skip:(fun i -> i > Atomic.get best)
      ~tasks:n_dispatch run_one
  in
  sweep_merge ?metrics ?on_progress p ~verdict_of:(fun i ->
      match results.(i) with
      | Some v -> v
      | None ->
          (* skipped past the first violation; only reachable if the
             merge still needs it, and re-running is deterministic *)
          sweep_cell p i)

let replay ?budget ?metrics ~make ~monitors decisions =
  let env, progs = make () in
  let adversary = Adversary.of_replay decisions in
  match
    Exec.run ?budget ~record_trace:true ~monitors:(monitors ()) ?metrics ~env
      ~adversary progs
  with
  | r -> Ok r
  | exception Monitor.Violation v -> Error v
