exception Deadlock

type fault_kind = Crash_stop | Omission | Crash_recovery | Byzantine

let fault_kind_name = function
  | Crash_stop -> "crash"
  | Omission -> "omission"
  | Crash_recovery -> "recovery"
  | Byzantine -> "byzantine"

let fault_kind_of_name = function
  | "crash" | "crash-stop" -> Some Crash_stop
  | "omission" | "omit" -> Some Omission
  | "recovery" | "crash-recovery" | "restart" -> Some Crash_recovery
  | "byzantine" | "byz" -> Some Byzantine
  | _ -> None

let pp_fault_kind ppf k = Format.pp_print_string ppf (fault_kind_name k)

type t = {
  name : string;
  pick : runnable:int list -> global_step:int -> int;
  fault_now :
    pid:int ->
    local_step:int ->
    global_step:int ->
    next:Op.info option ->
    fault_kind option;
  crashes : int ref;
}

let name t = t.name

let pick t ~runnable ~global_step =
  match runnable with
  | [] -> raise Deadlock
  | _ :: _ -> t.pick ~runnable ~global_step

let fault_now t ~pid ~local_step ~global_step ~next =
  let f = t.fault_now ~pid ~local_step ~global_step ~next in
  (match f with Some Crash_stop -> incr t.crashes | Some _ | None -> ());
  f

let crash_now t ~pid ~local_step ~global_step ~next =
  match fault_now t ~pid ~local_step ~global_step ~next with
  | Some Crash_stop -> true
  | Some _ | None -> false

let crash_count t = !(t.crashes)
let no_fault ~pid:_ ~local_step:_ ~global_step:_ ~next:_ = None

(* The adversary's corrupt value for a Byzantine step: derived from the
   schedule position alone, so a replay of the same decision log
   reproduces identical corrupt values. The offset keeps it far outside
   any input range the scenarios use. *)
let byz_value ~pid ~global_step =
  Codec.int.Codec.inj (1_000_000_000 + (global_step * 1_000) + pid)

let round_robin () =
  let last = ref (-1) in
  (* The first runnable pid after the last one chosen, or -1: a scan
     that builds no list, since it runs on every step. *)
  let rec first_after = function
    | [] -> -1
    | p :: rest -> if p > !last then p else first_after rest
  in
  let pick ~runnable ~global_step:_ =
    let chosen =
      match first_after runnable with
      | -1 -> ( match runnable with p :: _ -> p | [] -> raise Deadlock)
      | p -> p
    in
    last := chosen;
    chosen
  in
  { name = "round-robin"; pick; fault_now = no_fault; crashes = ref 0 }

let random ~seed =
  let rng = Rng.create seed in
  let pick ~runnable ~global_step:_ =
    List.nth runnable (Rng.int rng (List.length runnable))
  in
  {
    name = Printf.sprintf "random(%d)" seed;
    pick;
    fault_now = no_fault;
    crashes = ref 0;
  }

let priority order =
  let rank p =
    let rec idx i = function
      | [] -> List.length order + p
      | q :: rest -> if q = p then i else idx (i + 1) rest
    in
    idx 0 order
  in
  let pick ~runnable ~global_step:_ =
    match runnable with
    | [] -> raise Deadlock
    | first :: rest ->
        List.fold_left
          (fun best p -> if rank p < rank best then p else best)
          first rest
  in
  { name = "priority"; pick; fault_now = no_fault; crashes = ref 0 }

let biased ~seed ~favourite ~weight =
  let rng = Rng.create seed in
  let pick ~runnable ~global_step:_ =
    let expanded =
      List.concat_map
        (fun p -> if p = favourite then List.init weight (fun _ -> p) else [ p ])
        runnable
    in
    List.nth expanded (Rng.int rng (List.length expanded))
  in
  {
    name = Printf.sprintf "biased(%d,fav=%d)" seed favourite;
    pick;
    fault_now = no_fault;
    crashes = ref 0;
  }

type crash_spec =
  | Crash_at_local of { pid : int; step : int }
  | Crash_at_global of { pid : int; step : int }
  | Crash_before_op of { pid : int; nth : int; matches : Op.info -> bool }

type fault_spec = { kind : fault_kind; trigger : crash_spec }

(* Severity order for simultaneous faults: the most severe one wins. *)
let stronger a b =
  let rank = function
    | Crash_stop -> 0
    | Omission -> 1
    | Crash_recovery -> 2
    | Byzantine -> 3
  in
  match (a, b) with
  | None, f | f, None -> f
  | Some x, Some y -> if rank x <= rank y then a else b

let with_faults base specs =
  (* Mutable per-spec state: fired flag, and a match counter for
     [Crash_before_op] triggers. A fired Byzantine spec latches its pid:
     from the trigger on, every step of that pid is a Byzantine step. *)
  let specs = Array.of_list specs in
  let fired = Array.make (Array.length specs) false in
  let seen = Array.make (Array.length specs) 0 in
  let byz : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let fires i ~pid ~local_step ~global_step ~next =
    (not fired.(i))
    &&
    let hit =
      match specs.(i).trigger with
      | Crash_at_local c -> c.pid = pid && c.step = local_step
      | Crash_at_global c -> c.pid = pid && global_step >= c.step
      | Crash_before_op c -> (
          c.pid = pid
          &&
          match next with
          | Some info when c.matches info ->
              let n = seen.(i) in
              seen.(i) <- n + 1;
              n = c.nth
          | Some _ | None -> false)
    in
    if hit then fired.(i) <- true;
    hit
  in
  (* Called on every step, so the common case — nothing fires, nobody
     latched — allocates nothing and returns [None]. *)
  let fault_now ~pid ~local_step ~global_step ~next =
    (* Evaluate all specs so match counters advance even when another
       spec fires first. *)
    let strongest = ref None in
    for i = 0 to Array.length specs - 1 do
      if fires i ~pid ~local_step ~global_step ~next then begin
        let kind = specs.(i).kind in
        if kind = Byzantine then Hashtbl.replace byz pid ();
        strongest := stronger !strongest (Some kind)
      end
    done;
    match
      stronger !strongest (base.fault_now ~pid ~local_step ~global_step ~next)
    with
    | Some _ as f -> f
    | None ->
        if Hashtbl.length byz > 0 && Hashtbl.mem byz pid then Some Byzantine
        else None
  in
  {
    name = base.name ^ "+faults";
    pick = base.pick;
    fault_now;
    crashes = base.crashes;
  }

let with_crashes base specs =
  let adv =
    with_faults base
      (List.map (fun trigger -> { kind = Crash_stop; trigger }) specs)
  in
  { adv with name = base.name ^ "+crashes" }

let of_replay ?fallback decisions =
  let fallback = match fallback with Some f -> f | None -> round_robin () in
  let remaining = ref decisions in
  let current () = match !remaining with [] -> None | d :: _ -> Some d in
  let decision_pid = function
    | Trace.Sched p | Trace.Crash p | Trace.Omit p | Trace.Restart p
    | Trace.Byz p ->
        p
  in
  let pick ~runnable ~global_step =
    match current () with
    | Some d when List.mem (decision_pid d) runnable -> decision_pid d
    | Some _ | None -> fallback.pick ~runnable ~global_step
  in
  (* The scheduler asks [pick] then [fault_now] exactly once per
     iteration; the cursor advances in [fault_now], the second call. *)
  let fault_now ~pid ~local_step ~global_step ~next =
    match current () with
    | None -> fallback.fault_now ~pid ~local_step ~global_step ~next
    | Some d -> (
        remaining := List.tl !remaining;
        if decision_pid d <> pid then None
        else
          match d with
          | Trace.Sched _ -> None
          | Trace.Crash _ -> Some Crash_stop
          | Trace.Omit _ -> Some Omission
          | Trace.Restart _ -> Some Crash_recovery
          | Trace.Byz _ -> Some Byzantine)
  in
  { name = "replay"; pick; fault_now; crashes = ref 0 }

(* Shared derivation for the random fault planners: up to [max] distinct
   victims, each struck at a uniformly drawn local step, kinds drawn
   uniformly from [kinds]. Deterministic in [seed]. *)
let random_plan ?(within = 300) ~seed ~max ~kinds ~nprocs () =
  let rng = Rng.create seed in
  let victims = ref [] in
  let n = min max nprocs in
  while List.length !victims < n do
    let v = Rng.int rng nprocs in
    if not (List.mem v !victims) then victims := v :: !victims
  done;
  List.map
    (fun pid ->
      let kind =
        match kinds with
        | [] -> Crash_stop
        | [ k ] -> k
        | ks -> List.nth ks (Rng.int rng (List.length ks))
      in
      (pid, Rng.int rng within, kind))
    !victims

let random_fault_plan ?within ~seed ~max_faults ~kinds ~nprocs () =
  random_plan ?within ~seed ~max:max_faults ~kinds ~nprocs ()

let random_crashes ?within ~seed ~max_crashes ~nprocs base =
  let specs =
    List.map
      (fun (pid, step, _) -> Crash_at_local { pid; step })
      (random_plan ?within ~seed ~max:max_crashes ~kinds:[ Crash_stop ] ~nprocs
         ())
  in
  with_crashes base specs
