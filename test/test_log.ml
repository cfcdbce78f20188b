(* The leveled logger (Svm.Log).

   - level thresholds drop records at the source; the null logger is
     fully disabled (so callers can guard expensive message builds);
   - human rendering of Info is exactly the historical "[sub] msg"
     stderr format (the smoke recipes grep it), other levels carry the
     level name;
   - JSON rendering is deterministic: stable member order, monotone
     sequence numbers shared across sub-loggers, no timestamps. *)

open Svm

let collect () =
  let buf = ref [] in
  ((fun s -> buf := s :: !buf), fun () -> List.rev !buf)

let test_levels_filter () =
  let write, lines = collect () in
  let l = Log.make ~level:Log.Warn (Log.human_sink write) in
  let net = Log.sub l "net" in
  Log.debugf net "nope %d" 1;
  Log.infof net "nope too";
  Log.warnf net "kept %d" 7;
  Log.errorf net "bad";
  Alcotest.(check (list string))
    "only warn and above pass a Warn threshold"
    [ "[net] warn: kept 7"; "[net] error: bad" ]
    (lines ())

let test_info_renders_like_legacy_stderr () =
  let write, lines = collect () in
  let l = Log.make (Log.human_sink write) in
  Log.infof (Log.sub l "net") "listening on port %d" 4321;
  Alcotest.(check (list string))
    "Info keeps the historical [sub] msg shape"
    [ "[net] listening on port 4321" ]
    (lines ())

let test_null_is_disabled () =
  Alcotest.(check bool) "null logger reports disabled" false
    (Log.enabled Log.null Log.Error);
  (* Must be a no-op, not a crash, at every level. *)
  Log.debugf Log.null "x";
  Log.errorf Log.null "x"

let test_json_deterministic () =
  let render () =
    let write, lines = collect () in
    let l = Log.make ~level:Log.Debug (Log.json_sink write) in
    Log.infof (Log.sub l "net") "hello";
    Log.debugf (Log.sub (Log.sub l "net") "frame") "got %d bytes" 17;
    String.concat "\n" (lines ())
  in
  Alcotest.(check string) "two identical runs log byte-identically"
    (render ()) (render ());
  let write, lines = collect () in
  let l = Log.make ~level:Log.Debug (Log.json_sink write) in
  Log.infof (Log.sub l "a") "one";
  Log.warnf (Log.sub l "b") "two";
  Alcotest.(check (list string))
    "stable member order, shared monotone seq, no timestamps"
    [
      {|{"seq":0,"level":"info","sub":"a","msg":"one"}|};
      {|{"seq":1,"level":"warn","sub":"b","msg":"two"}|};
    ]
    (lines ());
  (* Every line must also re-parse as JSON. *)
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable log line %s: %s" line e)
    (lines ())

let suite =
  [
    ( "log",
      [
        Alcotest.test_case "levels filter at the source" `Quick
          test_levels_filter;
        Alcotest.test_case "Info renders as the legacy stderr format" `Quick
          test_info_renders_like_legacy_stderr;
        Alcotest.test_case "null logger is disabled and safe" `Quick
          test_null_is_disabled;
        Alcotest.test_case "JSON lines are deterministic" `Quick
          test_json_deterministic;
      ] );
  ]
