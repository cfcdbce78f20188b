(* perfbench: the workload runner.

     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
     main.exe manifest          print the BENCHMARK.json this runner implies
     main.exe selfcheck FILE    diff FILE against it; check salted jobs

   A run sets the workload up, runs one untimed warm-up job, then times
   jobs in a closed loop — one client, the next job as soon as the
   previous one answers — for the given seconds. Between jobs it times
   a few more set-ups, each in a fresh process; their median is
   [setup_s]. Every job is checked against pinned verdicts and
   counts. The last line of stdout is one JSON object: correct,
   attempted, failed and the metrics. With [--trace 1] the seconds are
   split between an untraced and a traced phase (spans, wall-clock
   registries), then the layer probes run, and the metrics are the
   per-layer ones. *)

module W = Workloads

let exe = "_build/default/bin/asmsim.exe"
let out = "_build/perfbench"
let job_deadline = 60.
let setups = 11

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

(* Any problem makes the run incorrect; [fail] also counts a failed
   operation. *)
let problem tally msg =
  tally.errors <- msg :: tally.errors;
  prerr_endline ("perfbench: " ^ msg)

let fail tally msg =
  tally.failed <- tally.failed + 1;
  problem tally msg

type sample = { dt : float; work : int }

let run_job tally (inst : W.instance) (obs : W.obs) i =
  Spans.set_job obs.spans i;
  let dt, r =
    Measure.time (fun () ->
        Spans.call obs.spans "job" (fun () ->
            try inst.job obs i with e -> Error (Printexc.to_string e)))
  in
  tally.attempted <- tally.attempted + 1;
  match r with
  | Ok work when dt <= job_deadline -> Some { dt; work }
  | Ok _ ->
      fail tally (Printf.sprintf "job %d overran its %.0f s deadline" i job_deadline);
      None
  | Error m ->
      fail tally (Printf.sprintf "job %d: %s" i m);
      None

(* Closed loop for [seconds], calling [between] before each job; the
   samples and the next job index. *)
let phase ?(between = ignore) tally inst obs ~first ~seconds =
  let stop = Measure.now () +. seconds in
  let rec go i acc =
    if Measure.now () >= stop then (List.rev acc, i)
    else begin
      between ();
      match run_job tally inst obs i with
      | Some s -> go (i + 1) (s :: acc)
      | None -> go (i + 1) acc
    end
  in
  go first []

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let work_of xs = List.fold_left (fun acc s -> acc + s.work) 0 xs
let rate xs = float_of_int (work_of xs) /. sum (fun s -> s.dt) xs
let quantile q xs = Measure.quantile q (List.map (fun s -> s.dt) xs)

let print_metric (name, v) =
  Printf.printf "  %-28s %16.6f %s\n" name v (Catalog.unit_of name)

(* The fields of the result line. *)
let result_fields tally metrics =
  let open Svm.Json in
  [
    ("correct", Bool (tally.errors = []));
    ("attempted", Int (max 1 tally.attempted));
    ("failed", Int tally.failed);
    ( "metrics",
      Obj
        (List.map
           (fun (name, v) ->
             (name, Obj [ ("value", Float v); ("unit", String (Catalog.unit_of name)) ]))
           metrics) );
  ]

let write_json file doc =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Svm.Json.to_string ~pretty:true doc);
      output_char oc '\n')

(* Every metric the catalog promises for this kind of run, each a
   finite number, in catalog order. *)
let complete tally specs measured =
  List.filter_map
    (fun (m : Catalog.metric) ->
      match List.assoc_opt m.name measured with
      | Some v when Float.is_finite v -> Some (m.name, v)
      | Some _ ->
          problem tally (m.name ^ " is not a finite number");
          None
      | None ->
          problem tally (m.name ^ " was not measured");
          None)
    specs

let attribution ~workload ~probe phase =
  let terms = Probes.terms ~workload ~probe phase in
  Printf.printf "attribution of %.3f s over %d traced job(s), parallelism %.2f:\n"
    phase.Probes.wall phase.jobs phase.parallelism;
  let explained =
    List.fold_left
      (fun acc (label, cost, count) ->
        Printf.printf "  %-44s %12.3e s x %12.0f = %9.4f s\n" label cost count
          (cost *. count);
        acc +. (cost *. count))
      0. terms
  in
  let share = 1. -. (explained /. phase.wall) in
  Printf.printf "  %-44s %42.4f s (%.1f%% unexplained)\n" "explained" explained
    (100. *. share);
  share

let workload_named name =
  match List.find_opt (fun w -> w.W.name = name) W.all with
  | Some w -> w
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" name
        (String.concat ", " Catalog.workload_names);
      exit 2

(* This process's scratch directory, removed at exit after every child
   is stopped. *)
let scratch workload =
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "perfbench: %s not built\n" exe;
    exit 2
  end;
  let root =
    Filename.concat out (Printf.sprintf "tmp/%s-%d" workload (Unix.getpid ()))
  in
  at_exit (fun () ->
      Fleet.kill_all ();
      Measure.rm_rf root);
  root

let set_up (w : W.t) ctx =
  try w.setup ctx
  with e ->
    Printf.eprintf "perfbench: %s set-up failed: %s\n" w.name
      (Printexc.to_string e);
    exit 2

(* [main.exe setup]: set up, say so on stdout, tear down. *)
let setup_only ~workload ~seed =
  let w = workload_named workload in
  let inst = set_up w { W.seed; exe; dir = scratch workload } in
  print_endline "ready";
  inst.teardown ()

(* One set-up in a fresh process, timed from spawn until the child says
   it is ready: program start, module initialisation and the workload's
   set-up — everything a first job would wait for, one-time work
   included. *)
let fresh_setup ~workload ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Measure.now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "setup"; "--workload"; workload; "--seed"; string_of_int seed |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = Measure.now () -. t0 in
  close_in ic;
  match (line, snd (Unix.waitpid [] pid)) with
  | Some "ready", Unix.WEXITED 0 -> dt
  | _ ->
      Printf.eprintf "perfbench: %s set-up failed in a fresh process\n" workload;
      exit 2

let run ~workload ~seed ~seconds ~trace =
  let w = workload_named workload in
  let root = scratch workload in
  let ctx tag = { W.seed; exe; dir = Filename.concat root tag } in
  let tally = { attempted = 0; failed = 0; errors = [] } in
  let inst = set_up w (ctx "setup") in
  Printf.printf "perfbench %s: seed %d, %d s, trace %b\n%!" workload seed seconds
    trace;
  ignore (run_job tally inst W.untraced 0);
  let seconds = float_of_int seconds in
  (* The fresh-process set-ups are spread over the untraced phase, so
     their median sees the host the jobs saw, not one moment of it. *)
  let setup_times = ref [] and next_setup = ref 0. in
  let between () =
    if (not trace) && Measure.now () >= !next_setup then begin
      setup_times := fresh_setup ~workload ~seed :: !setup_times;
      next_setup := Measure.now () +. (seconds /. float_of_int setups)
    end
  in
  let untraced, next =
    phase ~between tally inst W.untraced ~first:1
      ~seconds:(if trace then seconds /. 2. else seconds)
  in
  let traced =
    if not trace then None
    else begin
      let obs = { W.spans = Spans.create (); metrics = Some (Svm.Metrics.create ~wall_clock:true ()) } in
      let cpu0 = Measure.cpu () in
      let samples, _ = phase tally inst obs ~first:next ~seconds:(seconds /. 2.) in
      let cpu = Measure.cpu () -. cpu0 in
      Some (obs, samples, cpu)
    end
  in
  let finish_obs = match traced with Some (obs, _, _) -> obs | None -> W.untraced in
  (match inst.finish finish_obs with
  | Ok n -> tally.attempted <- tally.attempted + n
  | Error m -> fail tally ("after the timed jobs: " ^ m)
  | exception e -> fail tally ("after the timed jobs: " ^ Printexc.to_string e));
  let rss =
    List.fold_left
      (fun acc pid -> Float.max acc (Option.value ~default:0. (Measure.peak_rss_mb pid)))
      0. (Unix.getpid () :: inst.pids)
  in
  inst.teardown ();
  let n = List.length untraced in
  Printf.printf "%d timed job(s) + 1 warm-up, %d %s, %d failed\n" n (work_of untraced)
    w.work tally.failed;
  let metrics, extra =
    match traced with
    | None ->
        let measured =
          [
            ("setup_s", Measure.median !setup_times);
            ("runs_per_s", rate untraced);
            ("job_p50_s", quantile 0.5 untraced);
            ("job_p75_s", quantile 0.75 untraced);
            ("peak_rss_mb", rss);
          ]
        in
        ( complete tally Catalog.end_to_end measured,
          [
            ( "job_seconds",
              Svm.Json.List (List.map (fun s -> Svm.Json.Float s.dt) untraced) );
          ] )
    | Some (obs, samples, cpu) ->
        let p = Probes.run ~spans:obs.spans ~ctx:(ctx "probes") in
        List.iter (problem tally) p.failures;
        let wall = sum (fun s -> s.dt) samples in
        let phase =
          {
            Probes.jobs = List.length samples;
            wall;
            parallelism = cpu /. wall;
            registry = Option.get obs.metrics;
          }
        in
        let probe name =
          match List.assoc_opt name (p.metrics @ p.internal) with
          | Some v -> v
          | None -> nan
        in
        let share = attribution ~workload ~probe phase in
        Printf.printf "self time by span (traced phase and probes):\n";
        List.iter
          (fun (name, count, self) ->
            Printf.printf "  %-36s %6d call(s) %10.4f s\n" name count self)
          (Spans.self_times obs.spans);
        let measured =
          p.metrics
          @ [
              ("trace.overhead_ratio", rate samples /. rate untraced);
              ("attrib.unexplained_share", share);
            ]
        in
        Spans.write obs.spans
          ~file:(Filename.concat out (workload ^ ".trace.json"))
          ~meta:[ ("workload", Svm.Json.String workload); ("seed", Svm.Json.Int seed) ];
        ( complete tally Catalog.per_layer measured,
          [
            ("traced_jobs", Svm.Json.Int (List.length samples));
            ("spans", Svm.Json.Int (Spans.count obs.spans));
          ] )
  in
  List.iter print_metric metrics;
  let fields = result_fields tally metrics in
  write_json
    (Filename.concat out (workload ^ if trace then ".layers.json" else ".json"))
    (Svm.Json.Obj
       (fields
       @ [
           ("workload", Svm.Json.String workload);
           ("seed", Svm.Json.Int seed);
           ( "errors",
             Svm.Json.List (List.rev_map (fun e -> Svm.Json.String e) tally.errors) );
         ]
       @ extra));
  print_endline (Svm.Json.to_string (Svm.Json.Obj fields));
  exit (if tally.errors = [] then 0 else 1)

(* The runtest check: BENCHMARK.json names exactly this runner's
   workloads and metrics, and salting gives two net jobs distinct
   fingerprints over the same cells. *)
let selfcheck file =
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  (match Svm.Json.of_string (In_channel.with_open_text file In_channel.input_all) with
  | Error m -> problem (file ^ ": " ^ m)
  | Ok doc ->
      if doc <> Catalog.manifest () then
        problem
          (Printf.sprintf "%s differs from the runner's manifest:\n%s" file
             (Svm.Json.to_string ~pretty:true (Catalog.manifest ()))));
  if List.map (fun w -> w.W.name) W.all <> Catalog.workload_names then
    problem "the runner's workloads differ from the catalog's";
  List.iter
    (fun (name, why) ->
      if String.length why > 200 || String.contains why '\n' then
        problem (name ^ ": why is longer than one 200-character line"))
    Catalog.workloads;
  let a = W.salted_job ~seed:1 1 and b = W.salted_job ~seed:1 2 in
  if Dist.Proto.job_fingerprint a = Dist.Proto.job_fingerprint b then
    problem "two salted net jobs share a fingerprint";
  let cells job =
    match Experiments.Harness.dist_instance job with
    | Ok inst -> Dist.Worker.cells_of_instance inst
    | Error m -> failwith m
  in
  if cells a <> cells b || cells a <> W.remote_cells then
    problem "salted net jobs differ in cells";
  match !problems with
  | [] -> print_endline "perfbench selfcheck: ok"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        opts ((key, value) :: acc) rest
    | [] -> acc
    | arg :: _ ->
        Printf.eprintf "perfbench: unexpected argument %S\n" arg;
        exit 2
  in
  let int_opt o key default =
    match List.assoc_opt key o with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None ->
            Printf.eprintf "perfbench: %s wants an integer, got %S\n" key v;
            exit 2)
  in
  let workload o =
    match List.assoc_opt "--workload" o with
    | Some w -> w
    | None ->
        prerr_endline "perfbench: --workload is required";
        exit 2
  in
  match args with
  | "run" :: rest ->
      let o = opts [] rest in
      Measure.mkdir_p out;
      run ~workload:(workload o) ~seed:(int_opt o "--seed" 1)
        ~seconds:(max 1 (int_opt o "--seconds" Catalog.run_seconds))
        ~trace:(int_opt o "--trace" 0 <> 0)
  | "setup" :: rest ->
      let o = opts [] rest in
      setup_only ~workload:(workload o) ~seed:(int_opt o "--seed" 1)
  | [ "manifest" ] ->
      print_endline (Svm.Json.to_string ~pretty:true (Catalog.manifest ()))
  | [ "selfcheck"; file ] -> selfcheck file
  | _ ->
      prerr_endline
        "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
        \       main.exe manifest | selfcheck FILE";
      exit 2
