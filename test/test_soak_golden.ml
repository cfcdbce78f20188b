(* Byte pins for the soak driver.

   Each pin soaks a scenario under one set of fault tiers into a fresh
   corpus through [Soak.run]
   and renders what the CLI would show of it: the outcome lines, the
   new findings' content addresses in discovery order, and the sorted
   [corpus --list] of the corpus left behind. The rendering must equal
   the golden under [soak_golden/] byte for byte, at one domain and at
   two — how schedules are shared out over domains must not show.

   On a mismatch the actual bytes are written next to the golden in
   the build tree as NAME.actual. *)

open Experiments

type pin = {
  file : string;
  algo : string;
  kinds : Svm.Adversary.fault_kind list;
  seed : int;
  schedules : int option;
  until : int option;
  batch : int;
}

let pins =
  [
    {
      file = "no_cancel.seed1";
      algo = "safe_agreement_no_cancel";
      kinds = [ Svm.Adversary.Crash_stop ];
      seed = 1;
      schedules = Some 1000;
      until = None;
      batch = Soak.default_config.Soak.batch;
    };
    {
      file = "no_cancel.seed2";
      algo = "safe_agreement_no_cancel";
      kinds = [ Svm.Adversary.Crash_stop ];
      seed = 2;
      schedules = Some 1000;
      until = None;
      batch = Soak.default_config.Soak.batch;
    };
    (* The [make smoke-soak] range: --seed 7 --until 120 --batch 40. *)
    {
      file = "no_cancel.smoke";
      algo = "safe_agreement_no_cancel";
      kinds = [ Svm.Adversary.Crash_stop ];
      seed = 7;
      schedules = None;
      until = Some 120;
      batch = 40;
    };
    (* The omission tier finds both shrunk violations and deadlocks
       (every process halted, one stuck): the deadlock record's payload
       is pinned through its content address. *)
    {
      file = "no_cancel.omission";
      algo = "safe_agreement_no_cancel";
      kinds = [ Svm.Adversary.Omission ];
      seed = 1;
      schedules = Some 400;
      until = None;
      batch = Soak.default_config.Soak.batch;
    };
    (* A correct protocol under Byzantine faults: no violation, only
       deadlock records. *)
    {
      file = "safe_agreement.byzantine";
      algo = "safe_agreement";
      kinds = [ Svm.Adversary.Byzantine ];
      seed = 1;
      schedules = Some 400;
      until = None;
      batch = Soak.default_config.Soak.batch;
    };
  ]

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "asmsim-soak-golden-%d-%d" (Unix.getpid ()) !counter)

let listing dir =
  match Corpus.Store.open_ dir with
  | Error m -> Alcotest.failf "reopen %s: %s" dir m
  | Ok store ->
      let rows =
        Corpus.Store.fold store ~init:[] ~f:(fun acc ~digest r ->
            (digest, Corpus.Record.kind_name r.Corpus.Record.kind) :: acc)
      in
      Corpus.Store.close store;
      List.sort compare rows
      |> List.map (fun (d, k) -> Printf.sprintf "%s %s\n" d k)
      |> String.concat ""

let render ~jobs pin =
  let s =
    match Scenario.find pin.algo with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let cfg =
    {
      Soak.default_config with
      Soak.seed = pin.seed;
      schedules = pin.schedules;
      until = pin.until;
      batch = pin.batch;
      kinds = pin.kinds;
      jobs;
    }
  in
  let dir = fresh_dir () in
  let o =
    match Soak.run cfg ~corpus_dir:dir s with
    | Ok o -> o
    | Error m -> Alcotest.failf "soak: %s" m
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "soaked schedules [%d, %d): %d run(s) in %d batch(es), %d clean, %d \
     deadlocked\n"
    o.Soak.o_first_index o.Soak.o_next_index o.Soak.o_executed
    o.Soak.o_batches o.Soak.o_clean o.Soak.o_deadlocks;
  List.iter (Printf.bprintf b "new finding %s\n") o.Soak.o_new_findings;
  Printf.bprintf b "findings: %d new, %d duplicate; corpus holds %d record(s)\n"
    (List.length o.Soak.o_new_findings)
    o.Soak.o_dup_findings o.Soak.o_corpus_records;
  Printf.bprintf b "--- corpus --list\n%s" (listing dir);
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  Buffer.contents b

let check_pin ~jobs pin () =
  let file = Filename.concat "soak_golden" pin.file in
  let expected =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error _ -> ""
  in
  let actual = render ~jobs pin in
  if expected <> actual then begin
    (try Sys.mkdir "soak_golden" 0o755 with Sys_error _ -> ());
    Out_channel.with_open_bin (file ^ ".actual") (fun oc ->
        output_string oc actual)
  end;
  Alcotest.(check string) (Printf.sprintf "%s jobs=%d" pin.file jobs)
    expected actual

let suite =
  [
    ( "soak-golden",
      List.concat_map
        (fun pin ->
          [
            Alcotest.test_case (pin.file ^ " jobs=1") `Quick
              (check_pin ~jobs:1 pin);
            Alcotest.test_case (pin.file ^ " jobs=2") `Quick
              (check_pin ~jobs:2 pin);
          ])
        pins );
  ]
