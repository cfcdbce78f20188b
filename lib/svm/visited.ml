(* A domain-striped insert-if-absent table: one plain array of
   immutable chains, read without a lock and extended under one of a
   fixed set of stripe locks. See the .mli for the linearizability
   argument. *)

type 'k t = {
  buckets : (int * 'k) list array;
  mask : int;
  locks : Mutex.t array;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable bloom_fp : int;
}

let fresh_stats () = { hits = 0; misses = 0; bloom_fp = 0 }

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

(* Bucket [b] is guarded by [locks.(b land (stripes - 1))]. Tables
   with fewer buckets simply leave the surplus locks unused. *)
let stripes = 64

let make_locks () = Array.init stripes (fun _ -> Mutex.create ())

let create ?(buckets = 65536) () =
  let cap = pow2 (max 16 buckets) 16 in
  { buckets = Array.make cap []; mask = cap - 1; locks = make_locks () }

let rec mem hash key = function
  | [] -> false
  | (h, k) :: tl -> (h = hash && k = key) || mem hash key tl

(* Under bucket [b]'s stripe lock: whether the chain holds the key by
   now, linking it on when it does not. The re-read is the point — the
   chain may have grown since the lock-free walk, and only a walk of
   the very chain being extended proves the key absent. *)
let locked_mem_or_add t b hash key =
  let lock = t.locks.(b land (stripes - 1)) in
  Mutex.lock lock;
  match mem hash key t.buckets.(b) with
  | present ->
      if not present then t.buckets.(b) <- (hash, key) :: t.buckets.(b);
      Mutex.unlock lock;
      present
  | exception e ->
      Mutex.unlock lock;
      raise e

let seen_or_add t ~hash key stats =
  let b = hash land t.mask in
  if mem hash key t.buckets.(b) || locked_mem_or_add t b hash key then begin
    stats.hits <- stats.hits + 1;
    true
  end
  else begin
    stats.misses <- stats.misses + 1;
    false
  end

let distinct t = Array.fold_left (fun n c -> n + List.length c) 0 t.buckets

(* A concurrent hash-consing table on the same striped buckets: the
   first worker to link a key names it; everyone else adopts that name.
   Within one table, id equality is exactly key equality — the numeric
   values depend on scheduling, so they must never be compared across
   tables or leak into deterministic output. *)
module Intern = struct
  type 'k t = {
    ibuckets : (int * 'k * int) list array;
    imask : int;
    ilocks : Mutex.t array;
    inext : int Atomic.t;
  }

  let create ?(buckets = 65536) () =
    let cap = pow2 (max 16 buckets) 16 in
    {
      ibuckets = Array.make cap [];
      imask = cap - 1;
      ilocks = make_locks ();
      inext = Atomic.make 1 (* 0 is reserved for the caller's root id *);
    }

  (* The key's id, or 0 (never handed out) when the chain lacks it. *)
  let rec find hash key = function
    | [] -> 0
    | (h, k, i) :: tl -> if h = hash && k = key then i else find hash key tl

  let id t ~hash key =
    let b = hash land t.imask in
    match find hash key t.ibuckets.(b) with
    | 0 -> (
        let lock = t.ilocks.(b land (stripes - 1)) in
        Mutex.lock lock;
        (* Other stripes draw ids concurrently, hence the atomic
           counter; drawing only once the locked re-walk proved the key
           absent means no id is ever abandoned. *)
        match find hash key t.ibuckets.(b) with
        | 0 ->
            let fresh = Atomic.fetch_and_add t.inext 1 in
            t.ibuckets.(b) <- (hash, key, fresh) :: t.ibuckets.(b);
            Mutex.unlock lock;
            fresh
        | i ->
            Mutex.unlock lock;
            i
        | exception e ->
            Mutex.unlock lock;
            raise e)
    | i -> i

  let count t = Atomic.get t.inext - 1
end
