(* The process-wide farm behind [Par.run] and [Par.run_dynamic]: calls
   answer as a sequential loop does, keep their helper domains across
   calls (one farm, not one per call or per size), retire the helpers
   when the size changes, run a nested call on its caller alone, keep
   the smallest-index exception rule, and spawn nothing at one job.
   [~oversubscribe:true] throughout, so a single-core host still runs
   the multi-domain paths; a farm is kept only when it [fits] the
   host. *)

open Svm

let check = Alcotest.check
let main = Domain.self ()
let id () = (Domain.self () :> int)
let fits size = size <= Domain.recommended_domain_count ()

let answers_like_a_loop () =
  for round = 0 to 99 do
    let tasks = 1 + (round mod 37) in
    let skip i = round mod 3 = 0 && (i + round) mod 5 = 0 in
    let f i = (i * i) + round in
    check
      Alcotest.(array (option int))
      (Printf.sprintf "round %d" round)
      (Array.init tasks (fun i -> if skip i then None else Some (f i)))
      (Par.run ~jobs:3 ~oversubscribe:true ~skip ~tasks f)
  done

(* [ntasks] tasks on [ntasks] domains that each wait until all of them
   have started: each domain must then claim exactly one. *)
let barrier_run ~ntasks f =
  let started = Atomic.make 0 in
  Par.run ~jobs:ntasks ~oversubscribe:true ~tasks:ntasks (fun i ->
      Atomic.incr started;
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get started < ntasks do
        if Unix.gettimeofday () > deadline then
          failwith "a farm domain never joined the round";
        Domain.cpu_relax ()
      done;
      f i)

(* The one helper of a two-domain farm, as seen by a barrier round. *)
let helper_of_two () =
  barrier_run ~ntasks:2 (fun _ -> id ())
  |> Array.to_list |> List.filter_map Fun.id
  |> List.filter (fun d -> d <> (main :> int))

let one_farm_for_life () =
  if not (fits 2) then Alcotest.skip ();
  let lock = Mutex.create () in
  let seen = ref [] in
  let note_id d =
    Mutex.protect lock (fun () ->
        if not (List.mem d !seen) then seen := d :: !seen)
  in
  let note () = note_id (id ()) in
  for _ = 1 to 1_000 do
    ignore (Par.run ~jobs:2 ~oversubscribe:true ~tasks:4 (fun i -> note (); i))
  done;
  ignore
    (Par.run_dynamic ~jobs:2 ~oversubscribe:true ~roots:[ 0 ]
       (fun pool ~worker item ->
         note ();
         if item < 200 then ignore (Par.push pool ~worker (item + 1))));
  note ();
  List.iter note_id (helper_of_two ());
  check Alcotest.int "1,000 runs and a run_dynamic saw two domains" 2
    (List.length !seen)

(* Helpers that count themselves out when their domain exits. *)
let marked_helpers ~ntasks exited =
  let helpers = Atomic.make 0 in
  ignore
    (barrier_run ~ntasks (fun _ ->
         if Domain.self () <> main then begin
           Atomic.incr helpers;
           Domain.at_exit (fun () -> Atomic.incr exited)
         end));
  Atomic.get helpers

let size_change_retires () =
  let exited2 = Atomic.make 0 and exited3 = Atomic.make 0 in
  check Alcotest.int "two domains: one helper" 1
    (marked_helpers ~ntasks:2 exited2);
  check Alcotest.int "a farm that fits stays parked after its call"
    (if fits 2 then 0 else 1)
    (Atomic.get exited2);
  check Alcotest.int "three domains: two helpers" 2
    (marked_helpers ~ntasks:3 exited3);
  check Alcotest.int "the call of another size joined the old helper" 1
    (Atomic.get exited2);
  check Alcotest.int "a farm larger than the host is joined after its call"
    (if fits 3 then 0 else 2)
    (Atomic.get exited3);
  ignore (Par.run ~jobs:2 ~oversubscribe:true ~tasks:2 Fun.id);
  check Alcotest.int "a call of another size joined the old helpers" 2
    (Atomic.get exited3)

let nested_runs_inline () =
  let inner i =
    let me = Domain.self () in
    let run =
      Par.run ~jobs:2 ~oversubscribe:true ~tasks:5 (fun j ->
          (Domain.self () = me, (10 * i) + j))
    in
    let dynamic = Atomic.make 0 in
    let pool =
      Par.run_dynamic ~jobs:2 ~oversubscribe:true ~roots:[ 0 ]
        (fun pool ~worker item ->
          if Domain.self () = me then Atomic.incr dynamic;
          if item < 9 then ignore (Par.push pool ~worker (item + 1)))
    in
    (run, Atomic.get dynamic, Par.jobs pool)
  in
  let got = Par.run ~jobs:2 ~oversubscribe:true ~tasks:6 inner in
  Array.iteri
    (fun i slot ->
      let run, dynamic, jobs = Option.get slot in
      check
        Alcotest.(array (option (pair bool int)))
        (Printf.sprintf "task %d: the nested run, on its caller" i)
        (Array.init 5 (fun j -> Some (true, (10 * i) + j)))
        run;
      check Alcotest.int
        (Printf.sprintf "task %d: every nested run_dynamic item on its caller"
           i)
        10 dynamic;
      check Alcotest.int (Printf.sprintf "task %d: one worker" i) 1 jobs)
    got

let smallest_index_raises () =
  for round = 1 to 20 do
    Alcotest.check_raises
      (Printf.sprintf "round %d: smallest raising index" round)
      (Failure "7")
      (fun () ->
        ignore
          (Par.run ~jobs:2 ~oversubscribe:true ~tasks:50 (fun i ->
               if i = 7 || i = 13 || i = 30 then failwith (string_of_int i);
               i)));
    check
      Alcotest.(array (option int))
      "the farm serves the next call"
      (Array.init 10 (fun i -> Some (i + 1)))
      (Par.run ~jobs:2 ~oversubscribe:true ~tasks:10 succ)
  done;
  check Alcotest.int "and still has its helper" 1
    (List.length (helper_of_two ()))

let one_job_spawns_nothing () =
  let before = helper_of_two () in
  let on_main i = Domain.self () = main && i >= 0 in
  check
    Alcotest.(array (option bool))
    "every task ran on the calling domain" (Array.make 20 (Some true))
    (Par.run ~jobs:1 ~oversubscribe:true ~tasks:20 on_main);
  let pool =
    Par.run_dynamic ~jobs:1 ~oversubscribe:true ~roots:[ 0; 1; 2 ]
      (fun _ ~worker:_ item ->
        if not (on_main item) then failwith "an item left the calling domain")
  in
  check Alcotest.int "run_dynamic too" 1 (Par.jobs pool);
  if fits 2 then
    check
      Alcotest.(list int)
      "the farm's helper outlived the one-job calls" before (helper_of_two ())

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "100 calls answer like a sequential loop" `Quick
          answers_like_a_loop;
        Alcotest.test_case "1,000 calls and a run_dynamic share one farm"
          `Quick one_farm_for_life;
        Alcotest.test_case "a size change retires the old helpers" `Quick
          size_change_retires;
        Alcotest.test_case "a nested call runs on its caller" `Quick
          nested_runs_inline;
        Alcotest.test_case "smallest index raises; the farm lives on" `Quick
          smallest_index_raises;
        Alcotest.test_case "one job spawns nothing" `Quick
          one_job_spawns_nothing;
      ] );
  ]
