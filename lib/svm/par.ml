(* A zero-dependency multicore pool over stdlib [Domain], in two
   flavours, both run as rounds on one process-wide farm of domains:

   - [run]: an indexed task farm. Tasks [0 .. tasks-1] are handed out
     through one atomic counter and results land in per-index slots —
     the right scheduler for pre-sliced work (sweep cells, dist shards,
     soak chunks).

   - [run_dynamic]: a work-stealing pool for work that splits as it
     runs. Each worker owns a fixed-capacity circular deque
     (Chase-Lev style: owner pushes/pops at the bottom, thieves CAS
     the top); an idle worker steals from a random victim. The
     explorer feeds it subtree items and consults [want_work] to
     decide when to split — so splitting happens exactly when some
     domain is starving, not on a static pre-cut.

   The farm's helper domains are spawned by the first round that needs
   them and parked on a condition variable between rounds, so a
   process running many rounds (sweeps, soak batches, explorations)
   spawns no domain per call: in OCaml 5 every domain spawned and
   joined grows the major heap, so a domain per call is memory that
   grows with the number of calls. There is one farm, sized by the
   round using it; a round of another size retires it (joins its
   helpers) and spawns a new one, and the last farm is joined at exit.
   Every parked domain still answers each stop-the-world GC, so a farm
   per size (a domain parked per size ever used) or a farm larger than
   the machine (an oversubscribed round's) would tax all the work that
   runs beside it: neither is kept.

   Determinism note: neither pool promises anything about execution
   order. Callers needing deterministic output must make per-item
   results order-independent and merge canonically ([Explore] merges
   in task-index order under [run], and uses a closure argument — the
   set of expanded states is schedule-independent — under
   [run_dynamic]). *)

(* Never run more domains than the machine has cores: oversubscribed
   domains only add stop-the-world GC synchronisation. Callers' results
   cannot tell the difference (they must already be jobs-agnostic), so
   the cap is safe; [oversubscribe] bypasses it for tests that need the
   multi-domain code paths exercised regardless of the host. *)
let cap_jobs ~oversubscribe jobs =
  if oversubscribe then jobs else min jobs (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* The farm                                                             *)
(* ------------------------------------------------------------------ *)

type farm = {
  size : int;  (* domains a round uses, the caller's included *)
  mutable helpers : unit Domain.t list;  (* workers 1 .. size-1 *)
  lock : Mutex.t;
  wake : Condition.t;  (* a new round was posted, or the farm closes *)
  finished : Condition.t;  (* the last helper left the current round *)
  mutable round : int;
  mutable body : int -> unit;  (* the current round, given a worker index *)
  mutable running : int;  (* helpers still inside the current round *)
  mutable closing : bool;
}

(* The farm, and who holds it: a round takes [busy] for its whole
   length, and only the holder reads or replaces [current]. A call that
   finds it taken — nested in a task, or from another thread — runs on
   its caller alone. *)
let current : farm option ref = ref None
let busy = Atomic.make false

(* A helper's life: wait for a round newer than [seen], run its body
   (which never raises), report back, repeat until closing. *)
let rec serve farm ~worker seen =
  Mutex.lock farm.lock;
  while farm.round = seen && not farm.closing do
    Condition.wait farm.wake farm.lock
  done;
  let round = farm.round and body = farm.body and closing = farm.closing in
  Mutex.unlock farm.lock;
  if not closing then begin
    body worker;
    Mutex.lock farm.lock;
    farm.running <- farm.running - 1;
    if farm.running = 0 then Condition.signal farm.finished;
    Mutex.unlock farm.lock;
    serve farm ~worker round
  end

let retire farm =
  Mutex.lock farm.lock;
  farm.closing <- true;
  Condition.broadcast farm.wake;
  Mutex.unlock farm.lock;
  List.iter Domain.join farm.helpers

let () =
  at_exit (fun () ->
      if Atomic.compare_and_set busy false true then begin
        Option.iter retire !current;
        current := None;
        Atomic.set busy false
      end)

(* The farm for a round of [size] domains; the caller holds [busy]. *)
let farm_of_size size =
  match !current with
  | Some farm when farm.size = size -> farm
  | old ->
      Option.iter retire old;
      let farm =
        {
          size;
          helpers = [];
          lock = Mutex.create ();
          wake = Condition.create ();
          finished = Condition.create ();
          round = 0;
          body = ignore;
          running = 0;
          closing = false;
        }
      in
      farm.helpers <-
        List.init (size - 1) (fun i ->
            Domain.spawn (fun () -> serve farm ~worker:(i + 1) 0));
      current := Some farm;
      farm

(* Run [body w] on every domain of a [size]-domain farm — worker 0 is
   the caller — and return once all of them are done with it. [false]
   (and nothing run) when the farm is busy. *)
let on_farm ~size body =
  if not (Atomic.compare_and_set busy false true) then false
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        let farm = farm_of_size size in
        Mutex.lock farm.lock;
        farm.body <- body;
        farm.running <- size - 1;
        farm.round <- farm.round + 1;
        Condition.broadcast farm.wake;
        Mutex.unlock farm.lock;
        body 0;
        Mutex.lock farm.lock;
        while farm.running > 0 do
          Condition.wait farm.finished farm.lock
        done;
        farm.body <- ignore;
        Mutex.unlock farm.lock;
        (* Only a farm that fits the machine is kept: a parked domain
           still answers every stop-the-world GC, so domains parked
           beyond the cores (possible only with [oversubscribe]) would
           tax everything that runs after them. *)
        if size > Domain.recommended_domain_count () then begin
          retire farm;
          current := None
        end;
        true)

(* ------------------------------------------------------------------ *)
(* The indexed task farm                                                *)
(* ------------------------------------------------------------------ *)

let run (type a) ~jobs ?(oversubscribe = false)
    ?(skip = fun (_ : int) -> false) ~tasks (f : int -> a) : a option array =
  if jobs < 1 then invalid_arg "Par.run: jobs must be >= 1";
  if tasks < 0 then invalid_arg "Par.run: tasks must be >= 0";
  let results : a option array = Array.make tasks None in
  (* Count the tasks the skip predicate admits right now: if none
     survive, waking (or spawning) domains would be pure overhead (the
     snapshot may be stale — skip is consulted again at claim time —
     but a task skipped here and admitted later was equally claimable
     as "skipped" by a worker, which callers already tolerate). *)
  let live = ref 0 in
  for i = 0 to tasks - 1 do
    if not (skip i) then incr live
  done;
  let sequential () =
    for i = 0 to tasks - 1 do
      if not (skip i) then results.(i) <- Some (f i)
    done
  in
  (if !live > 0 then
     let size = cap_jobs ~oversubscribe (min jobs tasks) in
     if size = 1 then sequential ()
     else begin
       let next = Atomic.make 0 in
       let failure : (int * exn) option Atomic.t = Atomic.make None in
       (* Keep the failure with the smallest task index so the exception
          that propagates does not depend on worker timing. *)
       let rec note_failure i exn =
         match Atomic.get failure with
         | Some (j, _) when j <= i -> ()
         | cur ->
             if not (Atomic.compare_and_set failure cur (Some (i, exn))) then
               note_failure i exn
       in
       let claim _worker =
         let continue = ref true in
         while !continue do
           let i = Atomic.fetch_and_add next 1 in
           if i >= tasks || Atomic.get failure <> None then continue := false
           else
             try if not (skip i) then results.(i) <- Some (f i)
             with exn -> note_failure i exn
         done
       in
       if on_farm ~size claim then
         match Atomic.get failure with Some (_, exn) -> raise exn | None -> ()
       else sequential ()
     end);
  results

(* ------------------------------------------------------------------ *)
(* Work-stealing deques                                                 *)
(* ------------------------------------------------------------------ *)

(* A fixed-capacity circular deque. The owner pushes and pops at
   [bottom]; thieves advance [top] by CAS. Slot reuse is safe because a
   push refuses to wrap onto an index a thief could still be reading:
   overwriting slot [t mod cap] requires [bottom - top >= cap], which
   requires [top] to have moved past [t] — and any thief still holding
   the old [t] then loses its CAS and discards what it read. *)
type 'w deque = {
  buf : 'w option Atomic.t array;
  dmask : int;
  top : int Atomic.t;
  bottom : int Atomic.t;
}

let deque_cap = 8192

let deque_create () =
  {
    buf = Array.init deque_cap (fun _ -> Atomic.make None);
    dmask = deque_cap - 1;
    top = Atomic.make 0;
    bottom = Atomic.make 0;
  }

let deque_push d w =
  let b = Atomic.get d.bottom and t = Atomic.get d.top in
  if b - t > d.dmask then false (* full: caller keeps the work inline *)
  else begin
    Atomic.set d.buf.(b land d.dmask) (Some w);
    Atomic.set d.bottom (b + 1);
    true
  end

let deque_pop d =
  let b = Atomic.get d.bottom - 1 in
  Atomic.set d.bottom b;
  let t = Atomic.get d.top in
  if b < t then begin
    Atomic.set d.bottom t;
    None
  end
  else
    let slot = d.buf.(b land d.dmask) in
    let v = Atomic.get slot in
    if b > t then begin
      Atomic.set slot None;
      v
    end
    else begin
      (* Last element: race a thief for it through the top CAS. *)
      let won = Atomic.compare_and_set d.top t (t + 1) in
      Atomic.set d.bottom (t + 1);
      if won then begin
        Atomic.set slot None;
        v
      end
      else None
    end

let deque_steal d =
  let t = Atomic.get d.top in
  let b = Atomic.get d.bottom in
  if b - t <= 0 then None
  else
    (* Publication order makes this non-[None]: the owner stores the
       slot before advancing [bottom], and we read the slot only after
       reading a [bottom] past it. *)
    let v = Atomic.get d.buf.(t land d.dmask) in
    if Atomic.compare_and_set d.top t (t + 1) then v else None

(* ------------------------------------------------------------------ *)
(* The dynamic pool                                                     *)
(* ------------------------------------------------------------------ *)

type 'w t = {
  deques : 'w deque array;
  pending : int Atomic.t;  (* items pushed but not yet fully executed *)
  starving : int Atomic.t;  (* workers currently looking for a steal *)
  stolen : int Atomic.t;
  first_exn : exn option Atomic.t;
  njobs : int;
}

let want_work p = p.njobs > 1 && Atomic.get p.starving > 0
let jobs p = p.njobs
let steals p = Atomic.get p.stolen

let push p ~worker w =
  Atomic.incr p.pending;
  if deque_push p.deques.(worker) w then true
  else begin
    Atomic.decr p.pending;
    false
  end

let note_exn p exn =
  let rec go () =
    match Atomic.get p.first_exn with
    | Some _ -> ()
    | None -> if not (Atomic.compare_and_set p.first_exn None (Some exn)) then go ()
  in
  go ()

(* xorshift: per-worker victim selection without [Random] (whose
   default state is domain-local but seeded identically — fine either
   way, this is cheaper and dependency-free). *)
let rng_next st =
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  st := x land max_int;
  !st

let worker_loop p f w =
  let my = p.deques.(w) in
  let rng = ref ((w + 1) * 0x9e3779b9) in
  let run_item it =
    (if Atomic.get p.first_exn = None then
       match f p ~worker:w it with
       | () -> ()
       | exception exn -> note_exn p exn);
    Atomic.decr p.pending
  in
  let rec main () =
    match deque_pop my with
    | Some it ->
        run_item it;
        main ()
    | None ->
        if Atomic.get p.pending > 0 then begin
          Atomic.incr p.starving;
          let got = steal_loop () in
          Atomic.decr p.starving;
          match got with
          | Some it ->
              Atomic.incr p.stolen;
              run_item it;
              main ()
          | None -> () (* pending hit 0: global quiescence *)
        end
  and steal_loop () =
    if Atomic.get p.pending = 0 then None
    else begin
      let v = rng_next rng mod p.njobs in
      match if v = w then None else deque_steal p.deques.(v) with
      | Some _ as got -> got
      | None ->
          (* Only the owner pushes to a deque, so ours cannot have
             refilled while we steal — just relax and try another
             victim until quiescence. *)
          Domain.cpu_relax ();
          steal_loop ()
    end
  in
  main ()

let run_dynamic (type w) ~jobs ?(oversubscribe = false) ~(roots : w list)
    (f : w t -> worker:int -> w -> unit) : w t =
  if jobs < 1 then invalid_arg "Par.run_dynamic: jobs must be >= 1";
  let want = cap_jobs ~oversubscribe jobs in
  (* The deques are sized by the domains that will really run: all of
     [want] on the farm, or the caller alone when the farm is busy. *)
  let pool njobs =
    let p =
      {
        deques = Array.init njobs (fun _ -> deque_create ());
        pending = Atomic.make 0;
        starving = Atomic.make 0;
        stolen = Atomic.make 0;
        first_exn = Atomic.make None;
        njobs;
      }
    in
    (* Seed worker 0: with the explorer's single root this preserves the
       sequential depth-first order exactly when [njobs = 1] (no
       thieves, [want_work] always false, so the caller never splits). *)
    List.iter
      (fun r ->
        Atomic.incr p.pending;
        if not (deque_push p.deques.(0) r) then
          invalid_arg "Par.run_dynamic: more roots than deque capacity")
      roots;
    p
  in
  let shared =
    if want = 1 then None
    else
      let p = pool want in
      if on_farm ~size:want (worker_loop p f) then Some p else None
  in
  let p =
    match shared with
    | Some p -> p
    | None ->
        let p = pool 1 in
        worker_loop p f 0;
        p
  in
  (match Atomic.get p.first_exn with Some exn -> raise exn | None -> ());
  p
