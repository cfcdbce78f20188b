(* The indexed task farm: a farm kept across rounds must answer exactly
   as a fresh one-round [Par.run] does, keep the smallest-index
   exception rule round after round, join its domains however its body
   ends, and spawn nothing at one job. [~oversubscribe:true] throughout,
   so a single-core host still runs the multi-domain paths. *)

open Svm

let check = Alcotest.check
let main = Domain.self ()

let farm_matches_run () =
  Par.with_farm ~jobs:3 ~oversubscribe:true (fun farm ->
      for round = 0 to 99 do
        let tasks = 1 + (round mod 37) in
        let skip i = round mod 3 = 0 && (i + round) mod 5 = 0 in
        let f i = (i * i) + round in
        check
          Alcotest.(array (option int))
          (Printf.sprintf "round %d" round)
          (Par.run ~jobs:3 ~oversubscribe:true ~skip ~tasks f)
          (Par.run_in farm ~skip ~tasks f)
      done)

let smallest_index_raises () =
  Par.with_farm ~jobs:2 ~oversubscribe:true (fun farm ->
      for round = 1 to 20 do
        Alcotest.check_raises
          (Printf.sprintf "round %d: smallest raising index" round)
          (Failure "7")
          (fun () ->
            ignore
              (Par.run_in farm ~tasks:50 (fun i ->
                   if i = 7 || i = 13 || i = 30 then failwith (string_of_int i);
                   i)));
        check
          Alcotest.(array (option int))
          "the farm serves the next round"
          (Array.init 10 (fun i -> Some (i + 1)))
          (Par.run_in farm ~tasks:10 succ)
      done;
      Alcotest.check_raises "a task may not use its own farm"
        (Invalid_argument "Par.run_in: called from inside its farm")
        (fun () ->
          ignore
            (Par.run_in farm ~tasks:4 (fun _ ->
                 Par.run_in farm ~tasks:2 Fun.id))))

(* [ntasks] tasks that each wait until all of them have started: each of
   [ntasks] domains must then claim exactly one. *)
let barrier_round farm ~ntasks f =
  let started = Atomic.make 0 in
  Par.run_in farm ~tasks:ntasks (fun i ->
      Atomic.incr started;
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get started < ntasks do
        if Unix.gettimeofday () > deadline then
          failwith "a farm domain never joined the round";
        Domain.cpu_relax ()
      done;
      f i)

let joins_when_body_raises () =
  let exited = Atomic.make 0 in
  let helpers = Atomic.make 0 in
  (match
     Par.with_farm ~jobs:3 ~oversubscribe:true (fun farm ->
         ignore
           (barrier_round farm ~ntasks:3 (fun _ ->
                if Domain.self () <> main then begin
                  Atomic.incr helpers;
                  (* Slow to exit: only a join waits for this. *)
                  Domain.at_exit (fun () ->
                      Unix.sleepf 0.05;
                      Atomic.incr exited)
                end));
         failwith "body")
   with
  | () -> Alcotest.fail "with_farm swallowed the body's exception"
  | exception Failure m ->
      check Alcotest.string "the body's exception" "body" m);
  check Alcotest.int "both helpers ran a task" 2 (Atomic.get helpers);
  check Alcotest.int "every helper domain exited before with_farm returned" 2
    (Atomic.get exited)

let one_job_spawns_nothing () =
  let on_main i = Domain.self () = main && i >= 0 in
  Par.with_farm ~jobs:1 ~oversubscribe:true (fun farm ->
      check
        Alcotest.(array (option bool))
        "every task ran on the calling domain"
        (Array.make 20 (Some true))
        (Par.run_in farm ~tasks:20 on_main));
  check
    Alcotest.(array (option bool))
    "Par.run too" (Array.make 20 (Some true))
    (Par.run ~jobs:1 ~oversubscribe:true ~tasks:20 on_main)

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "a farm kept for 100 rounds answers like run"
          `Quick farm_matches_run;
        Alcotest.test_case "smallest index raises; the farm lives on" `Quick
          smallest_index_raises;
        Alcotest.test_case "with_farm joins when its body raises" `Quick
          joins_when_body_raises;
        Alcotest.test_case "one job spawns nothing" `Quick
          one_job_spawns_nothing;
      ] );
  ]
