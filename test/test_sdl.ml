(* The Scenario DSL front to back: the parser's golden shapes and typed
   failures (never exceptions, even on garbage), the validator's
   rejection table, the fmt -> parse round-trip law on generated
   scenarios, and the compiled-twin differentials — a DSL transcription
   of a builtin scenario must sweep to the byte-identical outcome,
   replay artifact included. *)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Sdl.Ast.error_to_string e)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let parse_ok src = ok_or_fail (Sdl.Parser.parse src)

let golden_src =
  {|# a comment
scenario "golden" {
  doc "the parser golden"
  nprocs 3 min 2
  x 2
  explore_steps 8
  objects {
    reg R
    xsa X2 x 2 first_subset_only
    sa SA no_cancel
  }
  process 0 .. 1 {
    write R [] (pid * 2)
    repeat 2 {
      propose X2 [1] pid
    }
    let v = decide X2 [1]
    decide v + 1
  }
  process 2 {
    let w = read R [] default 7
    decide w
  }
  property agreement in 0 .. nprocs
  property stall_bound "X2" bound 3
}|}

let parser_golden () =
  let sc = parse_ok golden_src in
  Alcotest.(check string) "name" "golden" sc.Sdl.Ast.sc_name;
  Alcotest.(check string) "doc" "the parser golden" sc.Sdl.Ast.sc_doc;
  Alcotest.(check int) "nprocs" 3 sc.Sdl.Ast.sc_nprocs;
  Alcotest.(check int) "min" 2 sc.Sdl.Ast.sc_min_nprocs;
  Alcotest.(check int) "x" 2 sc.Sdl.Ast.sc_x;
  Alcotest.(check bool) "seeded_bug" false sc.Sdl.Ast.sc_seeded_bug;
  Alcotest.(check int) "explore_steps" 8 sc.Sdl.Ast.sc_explore_steps;
  Alcotest.(check int) "objects" 3 (List.length sc.Sdl.Ast.sc_objects);
  Alcotest.(check int) "blocks" 2 (List.length sc.Sdl.Ast.sc_procs);
  Alcotest.(check int) "props" 2 (List.length sc.Sdl.Ast.sc_props);
  (match (List.nth sc.Sdl.Ast.sc_objects 1).Sdl.Ast.o_kind with
  | Sdl.Ast.Xsa { x; first_subset_only; static_owners } ->
      Alcotest.(check int) "xsa x" 2 x;
      Alcotest.(check bool) "xsa fso" true first_subset_only;
      Alcotest.(check bool) "xsa static" false static_owners
  | _ -> Alcotest.fail "second object should be an xsa");
  match (List.hd sc.Sdl.Ast.sc_procs).Sdl.Ast.pb_sel with
  | Sdl.Ast.Range (0, 1) -> ()
  | _ -> Alcotest.fail "first block should select 0 .. 1"

(* Broken sources and a substring their error must mention. Every row
   must come back [Error] — an exception is a test failure. *)
let parse_reject_table =
  [
    ("", "scenario");
    ("scenario {", "name");
    ("scenario \"a\" { x 1 }", "nprocs");
    ("scenario \"a\" { nprocs 2 }", "x");
    ("scenario \"a\" { nprocs 2 x 1 objects { reg pid } process all { decide \
      0 } property agreement in 0 .. 1 }", "cannot be used as an object name");
    ("scenario \"a\" { nprocs 2 x 1 process all { decide 0 } property \
      agreement in 0 .. 1 } trailing", "trailing input");
    ("scenario \"a\" { nprocs 2 x 1 frobnicate 3 }", "frobnicate");
    ("scenario \"a\" { nprocs 2 x 1 objects { gadget G } }", "gadget");
  ]

let parser_rejects () =
  List.iter
    (fun (src, needle) ->
      match Sdl.Parser.parse src with
      | Ok _ -> Alcotest.failf "accepted: %s" src
      | Error e ->
          let msg = Sdl.Ast.error_to_string e in
          if not (contains ~needle msg) then
            Alcotest.failf "error %S lacks %S" msg needle)
    parse_reject_table

(* A bare object decide at statement level (the shape Pretty prints for
   an unbound [Decide_obj]) parses, its result dropped — pinning the
   parse(to_string sc) = sc contract for programmatically built ASTs. *)
let parser_bare_object_decide () =
  let sc =
    parse_ok
      "scenario \"a\" { nprocs 2 x 1 objects { sa S } process all { propose \
       S [] pid decide S [] decide 0 } property agreement in 0 .. 1 }"
  in
  (match (List.hd sc.Sdl.Ast.sc_procs).Sdl.Ast.pb_body with
  | [ _; { Sdl.Ast.st_desc = Sdl.Ast.Call c; _ }; _ ] -> (
      match c.Sdl.Ast.c_desc with
      | Sdl.Ast.Decide_obj { obj = "S"; key = [] } -> ()
      | _ -> Alcotest.fail "second statement should be an object decide")
  | _ -> Alcotest.fail "expected three statements");
  ok_or_fail (Sdl.Validate.validate sc);
  (* and the printed form round-trips *)
  let printed = Sdl.Pretty.to_string sc in
  let sc' = parse_ok printed in
  if not (Sdl.Ast.equal_ignoring_spans sc sc') then
    Alcotest.failf "bare object decide does not round-trip:\n%s" printed

(* Structural nesting is depth-capped with a typed error — a wire
   client cannot drive the recursive-descent parser into
   Stack_overflow with nested parens or nested blocks. *)
let parser_depth_capped () =
  let wrap_expr n =
    Printf.sprintf
      "scenario \"a\" { nprocs 2 x 1 process all { decide %s0%s } property \
       agreement in 0 .. 1 }"
      (String.concat "" (List.init n (fun _ -> "(")))
      (String.concat "" (List.init n (fun _ -> ")")))
  in
  let wrap_blocks n =
    Printf.sprintf
      "scenario \"a\" { nprocs 2 x 1 process all { %syield%s decide 0 } \
       property agreement in 0 .. 1 }"
      (String.concat "" (List.init n (fun _ -> "repeat 2 { ")))
      (String.concat "" (List.init n (fun _ -> " }")))
  in
  (* comfortably inside the cap: accepted *)
  (match Sdl.Parser.parse (wrap_expr 20) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "20 nested parens rejected: %s"
        (Sdl.Ast.error_to_string e));
  (* past the cap — including the tens-of-thousands range that used to
     overflow the stack — a typed error, never an exception *)
  List.iter
    (fun src ->
      match Sdl.Parser.parse src with
      | Ok _ -> Alcotest.fail "over-deep source accepted"
      | Error e ->
          let msg = Sdl.Ast.error_to_string e in
          if not (contains ~needle:"nest" msg) then
            Alcotest.failf "depth error %S lacks %S" msg "nest"
      | exception e ->
          Alcotest.failf "deep source raised %s" (Printexc.to_string e))
    [ wrap_expr 100; wrap_blocks 100; wrap_expr 30_000; wrap_blocks 8_000 ]

(* A deterministic little byte mangler: the parser (and lexer under it)
   must return typed errors on arbitrary input, never raise and never
   loop. Seeds a generator with chopped/spliced variants of the golden
   source plus raw noise. *)
let parser_never_raises () =
  let st = Random.State.make [| 0xfade; 17 |] in
  let noise len =
    String.init len (fun _ -> Char.chr (Random.State.int st 256))
  in
  let n = String.length golden_src in
  for i = 0 to 199 do
    let src =
      match i mod 4 with
      | 0 -> String.sub golden_src 0 (Random.State.int st (n + 1))
      | 1 ->
          let cut = Random.State.int st n in
          String.sub golden_src 0 cut ^ noise 5
          ^ String.sub golden_src cut (n - cut)
      | 2 -> noise (Random.State.int st 64)
      | _ ->
          String.map
            (fun c -> if Random.State.int st 10 = 0 then '"' else c)
            golden_src
    in
    match Sdl.Parser.parse src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parser raised %s on %S" (Printexc.to_string e) src
  done

(* Sources the parser accepts but the validator must reject, with a
   substring of the reason. *)
let validate_reject_table =
  [
    (* at least one property *)
    ("scenario \"a\" { nprocs 2 x 1 process all { decide pid } }", "property");
    (* duplicate object names *)
    ( "scenario \"a\" { nprocs 2 x 1 objects { reg R reg R } process all { \
       decide 0 } property agreement in 0 .. 1 }",
      "duplicate" );
    (* decide inside repeat *)
    ( {|scenario "a" { nprocs 2 x 1 process all { repeat 2 { decide 0 } }
        property agreement in 0 .. 1 }|},
      "inside 'repeat'" );
    (* decide buried in an if branch inside the repeat counts too *)
    ( {|scenario "a" { nprocs 2 x 1 process all {
          repeat 3 { if pid == 0 { decide 1 } } decide 0 }
        property agreement in 0 .. 1 }|},
      "inside 'repeat'" );
    (* nested repeats multiply past the unroll cap *)
    ( {|scenario "a" { nprocs 2 x 1 process all {
          repeat 255 { repeat 255 { yield } } decide 0 }
        property agreement in 0 .. 1 }|},
      "cap" );
    (* ... even when the naive product wraps the native int negative
       (255^8 overflows 63-bit ints): saturating arithmetic still
       rejects instead of silently accepting *)
    ( {|scenario "a" { nprocs 2 x 1 process all {
          repeat 255 { repeat 255 { repeat 255 { repeat 255 {
          repeat 255 { repeat 255 { repeat 255 { repeat 255 {
          yield } } } } } } } } decide 0 }
        property agreement in 0 .. 1 }|},
      "cap" );
    (* body must end decided *)
    ( {|scenario "a" { nprocs 2 x 1 objects { reg R } process all { write R [] 1 }
        property agreement in 0 .. 1 }|},
      "decide" );
    (* unbound variable *)
    ( {|scenario "a" { nprocs 2 x 1 process all { decide zig }
        property agreement in 0 .. 1 }|},
      "zig" );
    (* ts needs x >= 2 *)
    ( {|scenario "a" { nprocs 2 x 1 objects { ts T } process all { decide 0 }
        property agreement in 0 .. 1 }|},
      "x" );
    (* cons ports above the model arity *)
    ( {|scenario "a" { nprocs 2 x 1 objects { cons C ports 2 } process all { decide 0 }
        property agreement in 0 .. 1 }|},
      "port" );
    (* xsa arity above the model arity *)
    ( {|scenario "a" { nprocs 3 x 2 objects { xsa X x 3 } process all { decide 0 }
        property agreement in 0 .. 1 }|},
      "x" );
    (* op/kind mismatch: read on a queue *)
    ( {|scenario "a" { nprocs 2 x 2 objects { queue Q }
        process all { let v = read Q [] decide v }
        property agreement in 0 .. 1 }|},
      "read" );
    (* property ranges must be schedule-independent: no pid *)
    ( {|scenario "a" { nprocs 2 x 1 process all { decide 0 }
        property agreement in 0 .. pid }|},
      "pid" );
    (* coverage: two blocks claiming pid 1 *)
    ( {|scenario "a" { nprocs 3 x 1 process 0 .. 1 { decide 0 }
        process 1 .. 2 { decide 0 } property agreement in 0 .. 1 }|},
      "block" );
    (* coverage: pid 2 unclaimed *)
    ( {|scenario "a" { nprocs 3 x 1 process 0 .. 1 { decide 0 }
        property agreement in 0 .. 1 }|},
      "block" );
    (* port discipline: 2 unconditional proposers on a 1-port cons *)
    ( {|scenario "a" { nprocs 2 x 1 objects { cons C ports 1 }
        process all { let v = propose C [0] pid decide v }
        property agreement in 0 .. 1 }|},
      "port" );
  ]

let validator_rejects () =
  List.iter
    (fun (src, needle) ->
      let sc = parse_ok src in
      match Sdl.Validate.validate sc with
      | Ok () -> Alcotest.failf "validated: %s" src
      | Error e ->
          let msg = Sdl.Ast.error_to_string e in
          if not (contains ~needle msg) then
            Alcotest.failf "error %S lacks %S" msg needle)
    validate_reject_table

let validator_accepts_golden () =
  ok_or_fail (Sdl.Validate.validate (parse_ok golden_src))

(* fmt -> parse must be the identity up to spans, and generated
   scenarios must validate: the generator, printer, parser and
   validator agree on the language. *)
let roundtrip =
  QCheck.Test.make ~name:"fmt -> parse round-trips generated scenarios"
    ~count:200
    QCheck.(small_nat)
    (fun seed ->
      let sc = Sdl.Gen.scenario ~seed in
      (match Sdl.Validate.validate sc with
      | Ok () -> ()
      | Error e ->
          QCheck.Test.fail_reportf "generated scenario invalid: %s"
            (Sdl.Ast.error_to_string e));
      let printed = Sdl.Pretty.to_string sc in
      match Sdl.Parser.parse printed with
      | Error e ->
          QCheck.Test.fail_reportf "printed form does not parse: %s\n%s"
            (Sdl.Ast.error_to_string e) printed
      | Ok sc' ->
          if not (Sdl.Ast.equal_ignoring_spans sc sc') then
            QCheck.Test.fail_reportf "round-trip changed the scenario:\n%s"
              printed;
          (* and printing is a fixpoint: fmt(parse(fmt sc)) = fmt sc *)
          String.equal printed (Sdl.Pretty.to_string sc'))

(* ------------------------------------------------------------------ *)
(* Compiled-twin differentials: the DSL transcription of a builtin
   sweeps to the byte-identical outcome. [found.replay] is the whole
   replay artifact as bytes — comparing it transitively compares the
   violation, the shrunk schedule, the trace and the metadata. *)

let read_example name =
  let path = Filename.concat "../examples" name in
  In_channel.with_open_bin path In_channel.input_all

let ok_or_fail' = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let twin_outcome src_name builtin_name =
  let builtin = ok_or_fail' (Experiments.Scenario.find builtin_name)
  and dsl =
    ok_or_fail' (Experiments.Scenario.of_source (read_example src_name))
  in
  ( Experiments.Harness.sweep_scenario builtin,
    Experiments.Harness.sweep_scenario dsl )

let check_twin src_name builtin_name ~expect_found () =
  let b, d = twin_outcome src_name builtin_name in
  Alcotest.(check int) "runs" b.Svm.Explore.runs d.Svm.Explore.runs;
  Alcotest.(check bool)
    "exhausted" b.Svm.Explore.exhausted d.Svm.Explore.exhausted;
  match (b.Svm.Explore.found, d.Svm.Explore.found) with
  | None, None ->
      if expect_found then Alcotest.fail "expected both sweeps to find"
  | Some fb, Some fd ->
      if not expect_found then Alcotest.fail "expected both sweeps clean";
      Alcotest.(check string)
        "replay artifact bytes" fb.Svm.Explore.replay fd.Svm.Explore.replay;
      Alcotest.(check string)
        "violation message" fb.Svm.Explore.violation.Svm.Monitor.message
        fd.Svm.Explore.violation.Svm.Monitor.message
  | Some _, None -> Alcotest.fail "builtin found a violation, the twin did not"
  | None, Some _ -> Alcotest.fail "the twin found a violation, builtin did not"

(* The wire cap ([Dist.Proto] cannot depend on [Sdl], so the constant
   is duplicated) must stay equal to the compiler's. *)
let source_cap_pinned () =
  Alcotest.(check int)
    "Proto.max_source_bytes = Compile.max_source_bytes"
    Sdl.Compile.max_source_bytes Dist.Proto.max_source_bytes;
  let big =
    "scenario \"big\" { # " ^ String.make Sdl.Compile.max_source_bytes 'x'
  in
  match Sdl.Compile.load big with
  | Ok _ -> Alcotest.fail "oversized source compiled"
  | Error m ->
      if not (contains ~needle:"cap" m) then
        Alcotest.failf "cap error %S does not mention the cap" m

(* Scenario.find resolution: a registered DSL source shadows the builtin
   of the same name, and resizing goes through the DSL's own min. The
   registry is process-global, so the registration is undone however
   the test ends: later suites must find the builtin. *)
let registration_shadows () =
  let src = read_example "x_safe_agreement.sdl" in
  Fun.protect
    ~finally:(fun () -> Experiments.Scenario.unregister "x_safe_agreement")
    (fun () ->
      let _ = ok_or_fail' (Experiments.Scenario.register_source src) in
      let s = ok_or_fail' (Experiments.Scenario.find "x_safe_agreement") in
      (match s.Experiments.Scenario.origin with
      | Experiments.Scenario.Sdl_source _ -> ()
      | Experiments.Scenario.Builtin ->
          Alcotest.fail "find ignored the registration");
      let resized =
        ok_or_fail' (Experiments.Scenario.find ~nprocs:5 "x_safe_agreement")
      in
      Alcotest.(check int) "resized" 5 resized.Experiments.Scenario.nprocs;
      match Experiments.Scenario.find ~nprocs:2 "x_safe_agreement" with
      | Ok _ -> Alcotest.fail "below-min size accepted"
      | Error m ->
          if not (contains ~needle:"valid nprocs" m) then
            Alcotest.failf "resize error %S does not name the range" m);
  match (ok_or_fail' (Experiments.Scenario.find "x_safe_agreement")).origin with
  | Experiments.Scenario.Builtin -> ()
  | Experiments.Scenario.Sdl_source _ ->
      Alcotest.fail "the registration outlived its test"

(* ------------------------------------------------------------------ *)
(* The builtin registry pinned: every builtin's metadata and monitor
   names, the network fingerprint that folds them, and every explorable
   builtin's verdicts — exhaustive property and online monitors — on
   crafted runs. Generated from the registry before its builtins became
   one table; a DSL twin must land on the same lines as its builtin. *)

module Sc = Experiments.Scenario

let registry_line s =
  Printf.sprintf "%s n=%d x=%d depth=%d explorable=%b seeded=%b monitors=%s"
    s.Sc.name s.Sc.nprocs s.Sc.x s.Sc.explore_steps s.Sc.explorable
    s.Sc.seeded_bug
    (String.concat "; " (List.map Svm.Monitor.name (s.Sc.monitors ())))

let registry_expected =
  {|safe_agreement n=3 x=1 depth=12 explorable=true seeded=false monitors=agreement; decided-value-integrity
safe_agreement_no_cancel n=2 x=1 depth=10 explorable=true seeded=true monitors=agreement; decided-value-integrity
x_safe_agreement n=4 x=2 depth=10 explorable=true seeded=false monitors=agreement; decided-value-integrity
x_safe_agreement_first_subset n=4 x=2 depth=10 explorable=true seeded=true monitors=agreement; decided-value-integrity
x_safe_agreement_abortable n=4 x=2 depth=10 explorable=true seeded=false monitors=agreement-except(999); decided-value-integrity
bg_sec3 n=4 x=1 depth=0 explorable=false seeded=false monitors=2-agreement; decided-value-integrity; stall-bound(SA<=1); stall-bound(XSA:<=1)
bg_sec4 n=3 x=2 depth=0 explorable=false seeded=false monitors=2-agreement; decided-value-integrity; stall-bound(SA<=1); stall-bound(XSA:<=1)
ts_from_cons n=3 x=2 depth=12 explorable=true seeded=false monitors=winners(<=1)
x_compete n=4 x=2 depth=20 explorable=true seeded=false monitors=winners(<=2)
fingerprint v6:16f292b9|}

let registry_golden () =
  let lines = List.map registry_line (Sc.all ()) in
  Alcotest.(check string)
    "registry" registry_expected
    (String.concat "\n"
       (lines @ [ "fingerprint " ^ Experiments.Harness.registry_fingerprint () ]));
  (* the declared size and arity are the ones the built system runs at *)
  List.iter
    (fun s ->
      let env, progs = s.Sc.make () in
      Alcotest.(check int) (s.Sc.name ^ " nprocs") s.Sc.nprocs
        (Array.length progs);
      Alcotest.(check int) (s.Sc.name ^ " env nprocs") s.Sc.nprocs
        (Svm.Env.nprocs env);
      Alcotest.(check int) (s.Sc.name ^ " x") s.Sc.x (Svm.Env.x env))
    (Sc.all ())

let decided_int v = Svm.Exec.Decided (Svm.Codec.int.Svm.Codec.inj v)
let decided_bool b = Svm.Exec.Decided (Svm.Codec.bool.Svm.Codec.inj b)

let crafted_runs =
  let ints = List.map decided_int and bools = List.map decided_bool in
  [
    ("no decision", [ Svm.Exec.Crashed; Svm.Exec.Blocked; Svm.Exec.Stuck ]);
    ("agree 0", ints [ 0; 0; 0 ]);
    ("agree 10", ints [ 10; 10 ] @ [ Svm.Exec.Crashed ]);
    ("split 0/1", ints [ 0; 1 ]);
    ("split 10/11", ints [ 10; 11; 10 ]);
    ("three 10/11/12", ints [ 10; 11; 12 ]);
    ("out of range", ints [ 5000 ]);
    ("agree, one out of range", ints [ 10; 10; 5000 ]);
    ("sentinel only", ints [ 999; 999 ]);
    ("sentinel + agree", ints [ 999; 10; 10 ]);
    ("sentinel + split", ints [ 999; 10; 11 ]);
    ("0 won", bools [ false; false; false ]);
    ("1 won", bools [ true; false ]);
    ("2 won", bools [ true; true; false ]);
    ("3 won", bools [ true; true; true ]);
  ]

let show_check f =
  match f () with
  | Ok () -> "ok"
  | Error m -> m
  | exception e -> "raises " ^ Printexc.to_string e

(* The property on the run record, then the monitors fed the run's
   decisions and crashes in pid order (the first veto wins). *)
let verdict_line s (label, outcomes) =
  let run =
    {
      Svm.Explore.outcomes = Array.of_list outcomes;
      crashed = [];
      truncated = false;
      schedule = "";
    }
  in
  let property = show_check (fun () -> s.Sc.exhaustive_property run) in
  let monitors = s.Sc.monitors () in
  let feed ev =
    List.fold_left
      (fun acc m ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match Svm.Monitor.check m ev with
            | Ok () -> Ok ()
            | Error msg -> Error (Svm.Monitor.name m ^ ": " ^ msg)))
      (Ok ()) monitors
  in
  let online =
    show_check (fun () ->
        List.fold_left
          (fun acc (pid, o) ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match o with
                | Svm.Exec.Decided value ->
                    feed (Svm.Monitor.Decided { pid; step = pid; value })
                | Svm.Exec.Crashed ->
                    feed (Svm.Monitor.Crashed { pid; step = pid })
                | Svm.Exec.Blocked | Svm.Exec.Stuck -> Ok ()))
          (Ok ())
          (List.mapi (fun pid o -> (pid, o)) outcomes))
  in
  Printf.sprintf "%s | %s | %s | %s" s.Sc.name label property online

let verdict_lines s = List.map (verdict_line s) crafted_runs

let verdicts_expected =
  {|safe_agreement | no decision | ok | ok
safe_agreement | agree 0 | ok | ok
safe_agreement | agree 10 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement | split 0/1 | agreement: two distinct values decided | agreement: p1 decided 1 but p0 decided 0
safe_agreement | split 10/11 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement | three 10/11/12 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement | out of range | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 5000, not a permitted value (Byzantine writers: none)
safe_agreement | agree, one out of range | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement | sentinel only | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
safe_agreement | sentinel + agree | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
safe_agreement | sentinel + split | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
safe_agreement | 0 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
safe_agreement | 1 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
safe_agreement | 2 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
safe_agreement | 3 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | no decision | ok | ok
safe_agreement_no_cancel | agree 0 | ok | ok
safe_agreement_no_cancel | agree 10 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | split 0/1 | agreement: two distinct values decided | agreement: p1 decided 1 but p0 decided 0
safe_agreement_no_cancel | split 10/11 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | three 10/11/12 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | out of range | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 5000, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | agree, one out of range | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 10, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | sentinel only | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | sentinel + agree | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | sentinel + split | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | 0 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | 1 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | 2 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
safe_agreement_no_cancel | 3 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement | no decision | ok | ok
x_safe_agreement | agree 0 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 0, not a permitted value (Byzantine writers: none)
x_safe_agreement | agree 10 | ok | ok
x_safe_agreement | split 0/1 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 0, not a permitted value (Byzantine writers: none)
x_safe_agreement | split 10/11 | agreement: two distinct values decided | agreement: p1 decided 11 but p0 decided 10
x_safe_agreement | three 10/11/12 | agreement: two distinct values decided | agreement: p1 decided 11 but p0 decided 10
x_safe_agreement | out of range | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 5000, not a permitted value (Byzantine writers: none)
x_safe_agreement | agree, one out of range | validity: decided value outside the proposed range | agreement: p2 decided 5000 but p0 decided 10
x_safe_agreement | sentinel only | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
x_safe_agreement | sentinel + agree | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
x_safe_agreement | sentinel + split | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
x_safe_agreement | 0 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement | 1 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement | 2 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement | 3 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | no decision | ok | ok
x_safe_agreement_first_subset | agree 0 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 0, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | agree 10 | ok | ok
x_safe_agreement_first_subset | split 0/1 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 0, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | split 10/11 | agreement: two distinct values decided | agreement: p1 decided 11 but p0 decided 10
x_safe_agreement_first_subset | three 10/11/12 | agreement: two distinct values decided | agreement: p1 decided 11 but p0 decided 10
x_safe_agreement_first_subset | out of range | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 5000, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | agree, one out of range | validity: decided value outside the proposed range | agreement: p2 decided 5000 but p0 decided 10
x_safe_agreement_first_subset | sentinel only | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | sentinel + agree | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | sentinel + split | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 999, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | 0 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | 1 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | 2 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_first_subset | 3 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_abortable | no decision | ok | ok
x_safe_agreement_abortable | agree 0 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 0, not a permitted value (Byzantine writers: none)
x_safe_agreement_abortable | agree 10 | ok | ok
x_safe_agreement_abortable | split 0/1 | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 0, not a permitted value (Byzantine writers: none)
x_safe_agreement_abortable | split 10/11 | agreement: two distinct values decided | agreement-except(999): p1 decided 11 but p0 decided 10
x_safe_agreement_abortable | three 10/11/12 | agreement: two distinct values decided | agreement-except(999): p1 decided 11 but p0 decided 10
x_safe_agreement_abortable | out of range | validity: decided value outside the proposed range | decided-value-integrity: honest p0 decided 5000, not a permitted value (Byzantine writers: none)
x_safe_agreement_abortable | agree, one out of range | validity: decided value outside the proposed range | agreement-except(999): p2 decided 5000 but p0 decided 10
x_safe_agreement_abortable | sentinel only | ok | ok
x_safe_agreement_abortable | sentinel + agree | ok | ok
x_safe_agreement_abortable | sentinel + split | agreement: two distinct values decided | agreement-except(999): p2 decided 11 but p1 decided 10
x_safe_agreement_abortable | 0 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_abortable | 1 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_abortable | 2 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
x_safe_agreement_abortable | 3 won | validity: decided value is not an int | decided-value-integrity: honest p0 decided <univ>, not a permitted value (Byzantine writers: none)
ts_from_cons | no decision | ok | ok
ts_from_cons | agree 0 | ok | ok
ts_from_cons | agree 10 | ok | ok
ts_from_cons | split 0/1 | ok | ok
ts_from_cons | split 10/11 | ok | ok
ts_from_cons | three 10/11/12 | ok | ok
ts_from_cons | out of range | ok | ok
ts_from_cons | agree, one out of range | ok | ok
ts_from_cons | sentinel only | ok | ok
ts_from_cons | sentinel + agree | ok | ok
ts_from_cons | sentinel + split | ok | ok
ts_from_cons | 0 won | ok | ok
ts_from_cons | 1 won | ok | ok
ts_from_cons | 2 won | 2 processes won (bound 1) | winners(<=1): 2 processes won (bound 1)
ts_from_cons | 3 won | 3 processes won (bound 1) | winners(<=1): 2 processes won (bound 1)
x_compete | no decision | ok | ok
x_compete | agree 0 | ok | ok
x_compete | agree 10 | ok | ok
x_compete | split 0/1 | ok | ok
x_compete | split 10/11 | ok | ok
x_compete | three 10/11/12 | ok | ok
x_compete | out of range | ok | ok
x_compete | agree, one out of range | ok | ok
x_compete | sentinel only | ok | ok
x_compete | sentinel + agree | ok | ok
x_compete | sentinel + split | ok | ok
x_compete | 0 won | ok | ok
x_compete | 1 won | ok | ok
x_compete | 2 won | ok | ok
x_compete | 3 won | 3 processes won (bound 2) | winners(<=2): 3 processes won (bound 2)|}

let verdict_table () =
  Alcotest.(check string)
    "verdicts" verdicts_expected
    (String.concat "\n"
       (List.concat_map verdict_lines
          (List.filter (fun s -> s.Sc.explorable) (Sc.all ()))))

(* Each shipped twin compiles to its builtin's metadata, monitor names
   and verdicts. *)
let twin_registry src_name () =
  let dsl = ok_or_fail' (Sc.of_source (read_example src_name)) in
  let builtin =
    List.find (fun s -> s.Sc.name = dsl.Sc.name) (Sc.all ())
  in
  Alcotest.(check string) "registry line" (registry_line builtin)
    (registry_line dsl);
  Alcotest.(check (list string)) "verdicts" (verdict_lines builtin)
    (verdict_lines dsl)

let suite =
  [
    ( "sdl-parser",
      [
        Alcotest.test_case "golden shape" `Quick parser_golden;
        Alcotest.test_case "typed rejections" `Quick parser_rejects;
        Alcotest.test_case "bare object decide" `Quick
          parser_bare_object_decide;
        Alcotest.test_case "nesting depth capped" `Quick parser_depth_capped;
        Alcotest.test_case "never raises on garbage" `Quick parser_never_raises;
      ] );
    ( "sdl-validate",
      [
        Alcotest.test_case "rejection table" `Quick validator_rejects;
        Alcotest.test_case "accepts the golden" `Quick validator_accepts_golden;
      ] );
    ( "sdl-roundtrip",
      [ QCheck_alcotest.to_alcotest roundtrip ] );
    ( "sdl-twins",
      [
        Alcotest.test_case "x_safe_agreement (clean)" `Quick
          (check_twin "x_safe_agreement.sdl" "x_safe_agreement"
             ~expect_found:false);
        Alcotest.test_case "safe_agreement_no_cancel (seeded)" `Quick
          (check_twin "safe_agreement_no_cancel.sdl" "safe_agreement_no_cancel"
             ~expect_found:true);
        Alcotest.test_case "x_safe_agreement_first_subset (seeded)" `Quick
          (check_twin "x_safe_agreement_first_subset.sdl"
             "x_safe_agreement_first_subset" ~expect_found:true);
        Alcotest.test_case "twins land on their builtin's registry lines"
          `Quick
          (fun () ->
            List.iter
              (fun f -> twin_registry f ())
              [
                "x_safe_agreement.sdl";
                "safe_agreement_no_cancel.sdl";
                "x_safe_agreement_first_subset.sdl";
              ]);
      ] );
    ( "scenario-registry",
      [
        Alcotest.test_case "builtins and fingerprint pinned" `Quick
          registry_golden;
        Alcotest.test_case "verdict table on crafted runs" `Quick
          verdict_table;
      ] );
    ( "sdl-wire",
      [
        Alcotest.test_case "source cap pinned to the wire's" `Quick
          source_cap_pinned;
        Alcotest.test_case "registration shadows builtins" `Quick
          registration_shadows;
      ] );
  ]
