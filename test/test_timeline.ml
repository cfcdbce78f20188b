(* Timelines (Svm.Timeline): trace -> spans/instants, the causality
   pass, the Chrome export and its validator, and truncation honesty;
   and the fleet span format (Dist.Span) that shares the Chrome writer.

   Uses a real recorded run (safe agreement under an injected crash) so
   the decision log and event list correlate exactly as in production,
   plus hand-built traces for the truncation edge cases. *)

open Svm
open Svm.Prog.Syntax

let sa_make () =
  let env = Env.create ~nprocs:3 ~x:1 () in
  let sa = Shared_objects.Safe_agreement.make ~fam:"SA" in
  let prog i =
    let* () =
      Shared_objects.Safe_agreement.propose sa ~key:[] (Codec.int.Codec.inj i)
    in
    Shared_objects.Safe_agreement.decide sa ~key:[]
  in
  (env, Array.init 3 prog)

let crashed_run () =
  let env, progs = sa_make () in
  (* Crash p1 before its first operation: it never enters the protocol,
     so the others still decide and the run terminates. *)
  let adversary =
    Adversary.with_faults
      (Adversary.round_robin ())
      [
        {
          Adversary.kind = Adversary.Crash_stop;
          trigger = Adversary.Crash_at_local { pid = 1; step = 0 };
        };
      ]
  in
  let r = Exec.run ~budget:10_000 ~record_trace:true ~env ~adversary progs in
  match r.Exec.trace with
  | Some t -> (r, t)
  | None -> Alcotest.fail "no trace recorded"

let test_of_trace () =
  let r, trace = crashed_run () in
  let tl = Timeline.of_trace ~nprocs:3 trace in
  Alcotest.(check int) "nprocs" 3 tl.Timeline.nprocs;
  Alcotest.(check int) "nothing dropped" 0 tl.Timeline.dropped;
  (* One span per executed operation: op_counts sums over live pids. *)
  let ops = Array.fold_left ( + ) 0 r.Exec.op_counts in
  Alcotest.(check int) "one span per op" ops (List.length tl.Timeline.spans);
  (match tl.Timeline.instants with
  | [ i ] ->
      Alcotest.(check int) "crash instant pid" 1 i.Timeline.pid;
      Alcotest.(check string)
        "crash instant kind" "crash"
        (Timeline.fault_name i.Timeline.fault)
  | l -> Alcotest.failf "expected 1 instant, got %d" (List.length l));
  Alcotest.(check (list int)) "pids cover the run" [ 0; 1; 2 ]
    (List.sort_uniq compare
       (List.map (fun (s : Timeline.span) -> s.pid) tl.Timeline.spans
       @ List.map (fun (i : Timeline.instant) -> i.pid) tl.Timeline.instants))

let truncated_trace () =
  (* A tiny event buffer: the run outgrows it, so earlier events drop
     while the decision log stays complete. *)
  let t = Trace.create ~limit:4 () in
  let info = Some { Op.kind = Op.Register; fam = "R"; key = [] } in
  for step = 0 to 9 do
    Trace.record_decision t (Trace.Sched (step mod 2));
    Trace.add t { Trace.step; pid = step mod 2; info }
  done;
  t

(* Every export of a run with a crash, a Byzantine pid and a truncated
   trace, byte for byte: fault instants, corrupted shading and the
   truncation notes are all pinned. *)
let test_exports_golden () =
  let env, progs = sa_make () in
  let adversary =
    Adversary.with_faults
      (Adversary.round_robin ())
      [
        {
          Adversary.kind = Adversary.Crash_stop;
          trigger = Adversary.Crash_at_local { pid = 1; step = 0 };
        };
        {
          Adversary.kind = Adversary.Byzantine;
          trigger = Adversary.Crash_at_local { pid = 2; step = 1 };
        };
      ]
  in
  let r = Exec.run ~budget:200 ~record_trace:true ~env ~adversary progs in
  let exports tl =
    Timeline.to_text tl ^ Timeline.to_csv tl
    ^ Json.to_string ~pretty:true (Timeline.to_chrome ~meta:[ ("k", "v") ] tl)
    ^ "\n"
  in
  Test_cli_surface.check_golden "timeline.exports"
    (exports (Timeline.of_trace ~nprocs:3 (Option.get r.Exec.trace))
    ^ exports (Timeline.of_trace ~nprocs:2 (truncated_trace ())))

let test_causality () =
  let _, trace = crashed_run () in
  let tl = Timeline.of_trace ~nprocs:3 trace in
  let c = Timeline.causality tl in
  Alcotest.(check int) "span count" (List.length tl.Timeline.spans)
    c.Timeline.span_count;
  Alcotest.(check bool) "critical path within [1, spans]" true
    (c.Timeline.critical_path >= 1
    && c.Timeline.critical_path <= c.Timeline.span_count);
  Alcotest.(check bool) "parallelism >= 1" true (c.Timeline.parallelism >= 1.0);
  match c.Timeline.hot with
  | [] -> Alcotest.fail "no hot instances on a run that touched objects"
  | h :: _ ->
      Alcotest.(check bool) "hottest instance was accessed" true
        (h.Timeline.accesses >= 1);
      Alcotest.(check bool) "contention bounded by nprocs" true
        (h.Timeline.distinct_pids >= 1 && h.Timeline.distinct_pids <= 3)

let test_chrome_roundtrip () =
  let _, trace = crashed_run () in
  let tl = Timeline.of_trace ~nprocs:3 trace in
  let json = Timeline.to_chrome ~meta:[ ("scenario", "test") ] tl in
  (* The export must survive its own serialization... *)
  let reparsed =
    match Json.of_string (Json.to_string ~pretty:true json) with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome JSON does not reparse: %s" e
  in
  (* ... and satisfy the CI validator. *)
  match Timeline.validate_chrome reparsed with
  | Error e -> Alcotest.failf "validator rejects a fresh export: %s" e
  | Ok s ->
      Alcotest.(check int) "one fault instant" 1 s.Timeline.instants;
      Alcotest.(check int) "nothing dropped" 0 s.Timeline.dropped;
      List.iter
        (fun pid ->
          match List.assoc_opt pid s.Timeline.spans_per_pid with
          | Some n when n >= 1 -> ()
          | _ -> Alcotest.failf "pid %d has no spans in the export" pid)
        [ 0; 2 ]

let test_validator_rejects_malformed () =
  let check_rejected name json =
    match Timeline.validate_chrome json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "validator accepted %s" name
  in
  check_rejected "a non-object" (Json.List []);
  check_rejected "missing traceEvents" (Json.Obj [ ("foo", Json.Int 1) ]);
  check_rejected "event without ph"
    (Json.Obj
       [ ("traceEvents", Json.List [ Json.Obj [ ("tid", Json.Int 0) ] ]) ]);
  (* An "X" span without ts/dur is structurally broken. *)
  check_rejected "span without ts"
    (Json.Obj
       [
         ( "traceEvents",
           Json.List
             [
               Json.Obj
                 [
                   ("ph", Json.String "X");
                   ("tid", Json.Int 0);
                   ("name", Json.String "op");
                 ];
             ] );
       ])

(* Each malformed document and the validator's exact verdict. The
   verdict texts are what `asmsim trace-check' prints after "invalid
   chrome trace: ", so they are part of the CLI surface. *)
let validator_table =
  let ev ?(extra = []) ph tid =
    Json.Obj
      ([ ("ph", Json.String ph); ("tid", Json.Int tid); ("name", Json.String "e") ]
      @ extra)
  in
  let span tid =
    ev ~extra:[ ("ts", Json.Int 0); ("dur", Json.Int 1) ] "X" tid
  in
  let doc ?(other = []) events =
    Json.Obj
      [
        ("traceEvents", Json.List events);
        ("otherData", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) other));
      ]
  in
  [
    ( "missing tid",
      doc [ span 0; Json.Obj [ ("ph", Json.String "X"); ("name", Json.String "e") ] ],
      Error "missing event tid" );
    ("unknown ph", doc [ span 0; ev "Q" 0 ], Error "unknown event phase \"Q\"");
    ( "instant count disagrees",
      doc ~other:[ ("nprocs", 1); ("fault_instants", 2) ] [ span 0; ev "i" 0 ],
      Error "otherData says 2 fault instants, found 1" );
    ( "instant count checked before liveness",
      doc ~other:[ ("nprocs", 3); ("fault_instants", 0) ] [ span 0; ev "i" 1 ],
      Error "otherData says 0 fault instants, found 1" );
    ( "live pid without a span",
      doc ~other:[ ("nprocs", 3); ("fault_instants", 1) ] [ span 0; ev "i" 1 ],
      Error "live pid(s) without any span: p2" );
    ( "every live pid without a span is named",
      doc ~other:[ ("nprocs", 3) ] [ ev "M" 0; span 1 ],
      Error "live pid(s) without any span: p0,p2" );
    ( "live pid without a span, truncated",
      doc ~other:[ ("nprocs", 3); ("fault_instants", 1); ("dropped_events", 4) ]
        [ span 0; ev "i" 1 ],
      Ok [ (0, 1) ] );
    ( "a faulted pid needs no span",
      doc ~other:[ ("nprocs", 2); ("fault_instants", 1) ] [ span 0; ev "i" 1 ],
      Ok [ (0, 1) ] );
  ]

let test_validator_table () =
  List.iter
    (fun (name, json, want) ->
      let got =
        Result.map
          (fun s -> s.Timeline.spans_per_pid)
          (Timeline.validate_chrome json)
      in
      Alcotest.(check (result (list (pair int int)) string)) name want got)
    validator_table

(* ------------------------------------------------------------------ *)
(* Truncation honesty                                                   *)
(* ------------------------------------------------------------------ *)

let test_truncated_timeline () =
  let t = truncated_trace () in
  Alcotest.(check bool) "trace reports drops" true (Trace.dropped t > 0);
  let tl = Timeline.of_trace ~nprocs:2 t in
  Alcotest.(check int) "dropped propagates" (Trace.dropped t)
    tl.Timeline.dropped;
  (* Every export flags the truncation instead of looking complete. *)
  let text = Timeline.to_text tl in
  let csv = Timeline.to_csv tl in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "text warns" true (contains text "truncated");
  Alcotest.(check bool) "csv warns" true (contains csv "truncated");
  let chrome = Timeline.to_chrome tl in
  match Timeline.validate_chrome chrome with
  | Error e -> Alcotest.failf "validator rejects annotated truncation: %s" e
  | Ok s ->
      Alcotest.(check int) "chrome carries the dropped count"
        tl.Timeline.dropped s.Timeline.dropped

let test_trace_pp_truncation () =
  let t = truncated_trace () in
  let s = Format.asprintf "%a" Trace.pp t in
  Alcotest.(check bool) "Trace.pp announces truncation" true
    (String.length s > 0 && String.sub s 0 1 = "[")

(* ------------------------------------------------------------------ *)
(* Cross-process span merging (Dist.Span)                               *)
(* ------------------------------------------------------------------ *)

let pspan proc phase job shard ts dur =
  {
    Dist.Span.ps_proc = proc;
    ps_phase = phase;
    ps_job = job;
    ps_shard = shard;
    ps_ts = ts;
    ps_dur = dur;
  }

(* The life of one shard across three OS processes, plus a second worker
   lane, like a 2-worker `sweep --connect' run. *)
let fleet_spans () =
  [
    pspan "serve:1" "admit" "job-a" (-1) 1000 5;
    pspan "serve:1" "dispatch" "job-a" 0 1010 2;
    pspan "worker:2" "receive" "job-a" 0 1020 1;
    pspan "worker:2" "execute" "job-a" 0 1021 400;
    pspan "worker:2" "reply" "job-a" 0 1421 3;
    pspan "serve:1" "merge" "job-a" 0 1430 4;
    pspan "worker:3" "execute" "job-a" 1 1050 200;
    pspan "client:4" "collect" "job-a" 0 1440 2;
  ]

(* A span file round-trips through emit/load_file; a record missing a
   field and a torn tail line are skipped and counted. *)
let test_span_file_roundtrip () =
  let file = Filename.temp_file "asmsim-spans" ".jsonl" in
  let start_us = Dist.Span.now_us () in
  Out_channel.with_open_bin file (fun oc ->
      let rec_ = Some (Dist.Span.create ~proc:"worker:9" ~oc) in
      Dist.Span.emit rec_ ~phase:"execute" ~job:"deadbeef" ~shard:3 ~start_us;
      output_string oc "{\"proc\":\"x\"}\n{\"proc\":\"wor");
  let loaded = Dist.Span.load_file file in
  Sys.remove file;
  match loaded with
  | Ok ([ p ], 2) ->
      Alcotest.(check (list string))
        "fields round-trip"
        [ "worker:9"; "execute"; "deadbeef"; "3"; string_of_int start_us ]
        [
          p.ps_proc; p.ps_phase; p.ps_job; string_of_int p.ps_shard;
          string_of_int p.ps_ts;
        ];
      Alcotest.(check bool) "duration clamped to >= 1" true (p.ps_dur >= 1)
  | Ok (l, skipped) ->
      Alcotest.failf "loaded %d span(s), skipped %d" (List.length l) skipped
  | Error e -> Alcotest.failf "span file unreadable: %s" e

let test_span_merge_lanes_and_validation () =
  let trace = Dist.Span.merge (fleet_spans ()) in
  (* One lane per OS process, and the result must satisfy the same
     validator CI runs on single-process exports. *)
  (match Timeline.validate_chrome trace with
  | Error e -> Alcotest.failf "merged trace fails trace-check: %s" e
  | Ok s -> Alcotest.(check int) "no fault instants" 0 s.Timeline.instants);
  let other k =
    Option.bind (Json.member "otherData" trace) (Json.member k)
  in
  Alcotest.(check (option int))
    "one lane per process" (Some 4)
    (Option.bind (other "nprocs") Json.to_int);
  Alcotest.(check (option int))
    "every span survives" (Some 8)
    (Option.bind (other "spans") Json.to_int);
  Alcotest.(check (option string))
    "lane order is first appearance"
    (Some "serve:1,worker:2,worker:3,client:4")
    (Option.bind (other "processes") Json.to_str)

let test_span_merge_critical_path () =
  let trace = Dist.Span.merge (fleet_spans ()) in
  let cp =
    Option.value ~default:0
      (Option.bind
         (Option.bind (Json.member "otherData" trace)
            (Json.member "critical_path"))
         Json.to_int)
  in
  (* Shard 0's chain admit(5) -> dispatch(2) -> receive(1) -> execute(400)
     -> reply(3) -> merge(4) -> collect(2) dominates: the happens-before
     relation chains across lanes through the (job, shard) key. The
     serve lane also prepends admit(5)+dispatch(2) in program order;
     either way the heaviest chain is 417 µs. Worker 3's 200 µs shard-1
     execute must NOT extend it (different shard, different lane). *)
  Alcotest.(check int) "critical path chains across the wire" 417 cp

(* The merged document's bytes, as `asmsim trace-merge' writes them. *)
let test_span_merge_golden () =
  Test_cli_surface.check_golden "trace-merge.fleet"
    (Json.to_string ~pretty:true (Dist.Span.merge (fleet_spans ()))
    ^ "\n")

let test_span_merge_empty () =
  let trace = Dist.Span.merge [] in
  match Timeline.validate_chrome trace with
  | Error e -> Alcotest.failf "empty merge fails validation: %s" e
  | Ok s -> Alcotest.(check int) "no events" 0 s.Timeline.events

let suite =
  [
    ( "timeline",
      [
        Alcotest.test_case "trace -> spans + instants" `Quick test_of_trace;
        Alcotest.test_case "exports of a faulted run, golden" `Quick
          test_exports_golden;
        Alcotest.test_case "causality: critical path and hot instances"
          `Quick test_causality;
        Alcotest.test_case "chrome export round-trips the validator" `Quick
          test_chrome_roundtrip;
        Alcotest.test_case "validator rejects malformed traces" `Quick
          test_validator_rejects_malformed;
        Alcotest.test_case "validator verdicts, table" `Quick
          test_validator_table;
        Alcotest.test_case "truncation is flagged in every export" `Quick
          test_truncated_timeline;
        Alcotest.test_case "Trace.pp announces truncation" `Quick
          test_trace_pp_truncation;
        Alcotest.test_case "Span: emit/load_file round-trip" `Quick
          test_span_file_roundtrip;
        Alcotest.test_case "Span.merge: lanes + validator" `Quick
          test_span_merge_lanes_and_validation;
        Alcotest.test_case "Span.merge: cross-process critical path"
          `Quick test_span_merge_critical_path;
        Alcotest.test_case "Span.merge: golden bytes" `Quick
          test_span_merge_golden;
        Alcotest.test_case "Span.merge: empty input" `Quick
          test_span_merge_empty;
      ] );
  ]
