(* Pins the command-line surface of the asmsim binary: for every
   subcommand, the sorted (option name, documented default) pairs of its
   --help=plain page, and the stdout bytes of a dozen fast invocations.
   Help prose may change; names, defaults and stdout may not.

   Goldens live in cli_golden/. On a mismatch the actual bytes are
   written next to the golden in the build tree as NAME.actual, so a
   deliberate change can be inspected and copied over. *)

let exe = Unix.realpath "../bin/asmsim.exe"
let examples = Unix.realpath "../examples"

let subcommands =
  [
    "classes"; "canonical"; "run-task"; "simulate"; "chain"; "overhead";
    "experiment"; "sweep"; "explore"; "replay"; "trace"; "trace-check";
    "trace-merge"; "stats"; "scenarios"; "sdl"; "serve"; "work"; "top";
    "soak"; "corpus";
  ]

(* Run [args] with [cwd] as working directory; stdout and exit code. *)
let capture ~cwd args =
  let cmd =
    Printf.sprintf "cd %s && %s %s 2>/dev/null" (Filename.quote cwd)
      (Filename.quote exe) args
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "asmsim %s: killed by a signal" args

let check_golden name actual =
  let file = Filename.concat "cli_golden" name in
  let expected =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error _ -> ""
  in
  if expected <> actual then begin
    (try Sys.mkdir "cli_golden" 0o755 with Sys_error _ -> ());
    Out_channel.with_open_bin (file ^ ".actual") (fun oc ->
        output_string oc actual)
  end;
  Alcotest.(check string) name expected actual

(* An option line of a plain help page is indented by exactly seven
   spaces and starts with a dash: "-o FILE, --out=FILE (absent=x)". *)
let option_pairs cmd page =
  String.split_on_char '\n' page
  |> List.concat_map (fun line ->
         if
           String.length line > 8
           && String.sub line 0 8 = "       -"
         then
           let line = String.trim line in
           let names, default =
             match String.index_opt line '(' with
             | None -> (line, "")
             | Some i ->
                 let doc = String.sub line i (String.length line - i) in
                 let doc = String.sub doc 1 (String.length doc - 2) in
                 let value =
                   match String.index_opt doc '=' with
                   | Some j -> String.sub doc (j + 1) (String.length doc - j - 1)
                   | None -> doc
                 in
                 (String.trim (String.sub line 0 i), value)
           in
           String.split_on_char ',' names
           |> List.map (fun n ->
                  let n = String.trim n in
                  let stop =
                    List.fold_left
                      (fun stop c ->
                        match String.index_opt n c with
                        | Some i -> min stop i
                        | None -> stop)
                      (String.length n) [ '='; ' '; '[' ]
                  in
                  Printf.sprintf "%s %s %s" cmd (String.sub n 0 stop) default)
         else [])

let help_surface () =
  let lines =
    List.concat_map
      (fun cmd ->
        let code, page = capture ~cwd:"." (cmd ^ " --help=plain") in
        Alcotest.(check int) (cmd ^ " --help exit") 0 code;
        option_pairs cmd page)
      subcommands
  in
  check_golden "options"
    (String.concat "\n" (List.sort_uniq compare lines) ^ "\n")

(* Run in order in one fresh directory: later rows read what earlier
   ones wrote (the swept artifact, the soaked corpus, and NAME.out, the
   stdout of row NAME). *)
let invocations =
  [
    ("classes", "classes", 0);
    ("canonical", "canonical 3,1,1", 0);
    ("scenarios", "scenarios --json", 0);
    ("sdl-fmt", "sdl fmt EX/x_safe_agreement_first_subset.sdl", 0);
    ("sdl-compile", "sdl compile EX/safe_agreement_no_cancel.sdl", 0);
    ("sweep-clean", "sweep --algo safe_agreement --runs 200 --out clean.replay", 0);
    ("sweep-bug", "sweep --algo safe_agreement_no_cancel --out bug.replay", 1);
    ("explore-bug", "explore --algo safe_agreement_no_cancel --crashes 1", 1);
    ("stats-json", "stats --algo safe_agreement_no_cancel --json", 0);
    ("stats-replay", "stats bug.replay", 0);
    ("replay", "replay bug.replay", 1);
    ("trace-text", "trace bug.replay --format=text", 0);
    ("trace-chrome", "trace bug.replay --format=chrome", 0);
    ("trace-csv", "trace bug.replay --format=csv", 0);
    ("trace-check", "trace-check trace-chrome.out", 0);
    ( "soak",
      "soak --algo safe_agreement_no_cancel --seed 7 --until 60 --batch 20 \
       --corpus corpus",
      0 );
    ("corpus-list", "corpus corpus --list", 0);
    ("corpus-check", "corpus corpus --check", 0);
  ]

let stdout_surface () =
  let cwd = Filename.temp_dir "asmsim-cli-surface" "" in
  let results =
    List.map
      (fun (name, args, expected) ->
        let args =
          String.split_on_char ' ' args
          |> List.map (fun p ->
                 if String.starts_with ~prefix:"EX/" p then
                   Filename.concat examples (String.sub p 3 (String.length p - 3))
                 else p)
          |> String.concat " "
        in
        let code, out = capture ~cwd args in
        Out_channel.with_open_bin
          (Filename.concat cwd (name ^ ".out"))
          (fun oc -> output_string oc out);
        (name, expected, code, out))
      invocations
  in
  ignore (Sys.command ("rm -rf " ^ Filename.quote cwd));
  (* Every golden is compared (and every .actual written) before the
     first failure is reported. *)
  let failures =
    List.filter_map
      (fun (name, expected, code, out) ->
        match check_golden ("stdout." ^ name) out with
        | () when code = expected -> None
        | () -> Some (Printf.sprintf "%s: exit %d, want %d" name code expected)
        | exception e -> Some (Printexc.to_string e))
      results
  in
  Alcotest.(check (list string)) "stdout goldens" [] failures

let suite =
  [
    ( "cli-surface",
      [
        Alcotest.test_case "option names and defaults" `Quick help_surface;
        Alcotest.test_case "stdout bytes" `Quick stdout_surface;
      ] );
  ]
