(* Cell-level byte pins for three fault sweeps.

   [test_sweep_golden] pins what a sweep reports; these pin every cell
   the sweep runs. Each cell is re-run here as a traced, metered
   [Exec.run] under the cell's own scheduler and fault points, and its
   line in the golden holds the outcome names, [total_steps],
   [op_counts] and one MD5 over the replay text, the rendered trace
   events and the deterministic metrics snapshot. A violating cell pins
   the monitor, step, pid and message instead of the outcomes.

   The sweeps: the benchmark's clean sweep (the DSL twin of
   safe_agreement, crash tier, one fault, window 6), x_safe_agreement
   on the crash tier, and x_safe_agreement_abortable on the omission
   tier — the last a decider whose wait loop carries a patience
   counter. On a mismatch the actual bytes are written next to the
   golden in the build tree as NAME.actual. *)

open Svm

(* The DSL twin of the builtin safe_agreement scenario, as the
   benchmark's sweep workload compiles it. *)
let safe_agreement_twin =
  {|scenario "safe_agreement" {
  doc "Figure 1 safe agreement: agreement + validity"
  nprocs 3 min 2
  x 1
  explore_steps 12
  objects { sa SA }
  process all {
    propose SA [] pid
    let v = decide SA []
    decide v
  }
  property agreement in 0 .. nprocs - 1
}|}

type pin = {
  file : string;
  scenario : unit -> Experiments.Scenario.t;
  kinds : Adversary.fault_kind list;
  cells : int;
}

let registry name () =
  match Experiments.Scenario.find name with
  | Ok s -> s
  | Error m -> Alcotest.fail m

let twin () =
  match Experiments.Scenario.of_source safe_agreement_twin with
  | Ok s -> s
  | Error m -> Alcotest.fail m

let pins =
  [
    {
      file = "cells.safe_agreement_twin.crash";
      scenario = twin;
      kinds = [ Adversary.Crash_stop ];
      cells = 95;
    };
    {
      file = "cells.x_safe_agreement.crash";
      scenario = registry "x_safe_agreement";
      kinds = [ Adversary.Crash_stop ];
      cells = 125;
    };
    {
      file = "cells.x_safe_agreement_abortable.omission";
      scenario = registry "x_safe_agreement_abortable";
      kinds = [ Adversary.Omission ];
      cells = 125;
    };
  ]

let budget = 20_000

let digest ~trace metrics =
  let events = Format.asprintf "%a" Trace.pp trace in
  Digest.to_hex
    (Digest.string
       (String.concat "\n--- \n"
          [ Trace.to_replay trace; events; Metrics.snapshot_string metrics ]))

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* One cell, as a traced and metered run. *)
let cell_line (s : Experiments.Scenario.t) plan i =
  let sched = Explore.sweep_cell_schedule plan i in
  let scheduler =
    List.assoc sched.Explore.scheduler
      (Explore.default_schedulers ~nprocs:s.Experiments.Scenario.nprocs)
  in
  let specs =
    List.map
      (fun { Explore.victim; op; kind } ->
        {
          Adversary.kind;
          trigger = Adversary.Crash_at_local { pid = victim; step = op };
        })
      sched.Explore.faults
  in
  let adversary = Adversary.with_faults (scheduler ()) specs in
  let env, progs = s.Experiments.Scenario.make () in
  let metrics = Metrics.create ~wall_clock:false () in
  let verdict =
    match
      Exec.run ~budget ~record_trace:true
        ~monitors:(s.Experiments.Scenario.monitors ())
        ~metrics ~env ~adversary progs
    with
    | r ->
        Printf.sprintf "%s steps=%d ops=[%s] md5=%s"
          (String.concat ","
             (Array.to_list (Array.map Exec.outcome_name r.Exec.outcomes)))
          r.Exec.total_steps (ints r.Exec.op_counts)
          (digest ~trace:(Option.get r.Exec.trace) metrics)
    | exception Monitor.Violation v ->
        Printf.sprintf "violation %s@%d pid=%d %s md5=%s" v.Monitor.monitor
          v.Monitor.step v.Monitor.pid v.Monitor.message
          (digest ~trace:(Option.get v.Monitor.trace) metrics)
    | exception Adversary.Deadlock -> "deadlock"
  in
  Format.asprintf "%d %a | %s" i Explore.pp_fault_schedule sched verdict

let render pin =
  let s = pin.scenario () in
  let plan =
    Explore.sweep_plan ~kinds:pin.kinds ~max_faults:1 ~op_window:6
      ~meta:(Experiments.Scenario.sweep_meta s)
      ~make:s.Experiments.Scenario.make
      ~monitors:s.Experiments.Scenario.monitors ()
  in
  let cells = Explore.sweep_cells plan in
  Alcotest.(check int) (pin.file ^ ": cells swept") pin.cells cells;
  String.concat ""
    (List.init cells (fun i -> cell_line s plan i ^ "\n"))

let check_pin pin () =
  let file = Filename.concat "sweep_golden" pin.file in
  let expected =
    if Sys.file_exists file then
      In_channel.with_open_bin file In_channel.input_all
    else ""
  in
  let actual = render pin in
  if expected <> actual then
    Out_channel.with_open_bin (file ^ ".actual") (fun oc ->
        output_string oc actual);
  Alcotest.(check string) pin.file expected actual

let suite =
  [
    ( "sweep-cells",
      List.map
        (fun pin -> Alcotest.test_case pin.file `Quick (check_pin pin))
        pins );
  ]
