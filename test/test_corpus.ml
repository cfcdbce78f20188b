(* The corpus store's contract, distilled:

   1. crash-safety — SIGKILL at any instant (including mid-append, via
      the store's own chaos hooks driven through the real binary) loses
      at most the uncemented tail; everything that survives re-validates
      and a resumed soak converges on the same corpus content as an
      uninterrupted one;
   2. self-verification — every read recomputes the content address;
      corrupted cemented bytes become typed quarantine entries, never a
      crash, and compaction refuses to rewrite what it cannot verify;
   3. dedup — content addressing makes re-finding a known counterexample
      (same run, next run, resumed run) a duplicate, not a report. *)

open Corpus

let check = Alcotest.check
let exe = "../bin/asmsim.exe"

let fresh_dir () = Tmpdir.fresh ~create:false "asmsim-corpus-test"

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

let record ?(kind = Record.Finding) ?(meta = []) payload =
  Record.make ~kind ~meta ~payload

let open_store dir =
  match Store.open_ dir with
  | Ok st -> st
  | Error m -> Alcotest.failf "open %s: %s" dir m

let with_store dir f =
  let st = open_store dir in
  Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st)

let all_records st =
  Store.fold st ~init:[] ~f:(fun acc ~digest r -> (digest, r) :: acc)
  |> List.rev

let finding_digests dir =
  with_store dir (fun st ->
      Store.fold st ~init:[] ~f:(fun acc ~digest r ->
          if r.Record.kind = Record.Finding then digest :: acc else acc)
      |> List.sort String.compare)

(* ------------------------------------------------------------------ *)
(* records: one canonical rendering                                     *)
(* ------------------------------------------------------------------ *)

let record_roundtrip () =
  let r =
    record ~meta:[ ("zeta", "last"); ("alpha", "first") ] "payload\nbytes"
  in
  (* Canonicalization: metadata order at construction is irrelevant. *)
  let r' =
    record ~meta:[ ("alpha", "first"); ("zeta", "last") ] "payload\nbytes"
  in
  check Alcotest.string "meta order does not change the address"
    (Record.digest r) (Record.digest r');
  let bytes = Record.to_bytes r in
  (match Record.parse_at bytes 0 with
  | Ok (parsed, len) ->
      check Alcotest.int "parse consumes the whole rendering"
        (String.length bytes) len;
      check Alcotest.string "round-trip is byte-identical" bytes
        (Record.to_bytes parsed)
  | Error e -> Alcotest.failf "round-trip: %a" Record.pp_parse_error e);
  (* A prefix is a torn append, typed as such. *)
  (match Record.parse_at (String.sub bytes 0 (String.length bytes - 3)) 0 with
  | Error Record.Truncated -> ()
  | Ok _ | Error _ -> Alcotest.fail "a cut rendering must parse Truncated");
  (* A flipped payload byte is a digest mismatch, and the scanner can
     still compute the record's extent to skip past it. *)
  let corrupt = Bytes.of_string bytes in
  Bytes.set corrupt (String.length bytes - 2) '?';
  let corrupt = Bytes.to_string corrupt in
  (match Record.parse_at corrupt 0 with
  | Error (Record.Digest_mismatch _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "changed content must mismatch its address");
  match Record.skip_at corrupt 0 with
  | Ok len -> check Alcotest.int "extent survives corruption"
      (String.length bytes) len
  | Error e -> Alcotest.failf "skip_at: %a" Record.pp_parse_error e

let record_rejects_unframable_meta () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "space in key" true (raises (fun () ->
      record ~meta:[ ("bad key", "v") ] ""));
  Alcotest.(check bool) "newline in value" true (raises (fun () ->
      record ~meta:[ ("k", "line\nbreak") ] ""));
  Alcotest.(check bool) "duplicate key" true (raises (fun () ->
      record ~meta:[ ("k", "a"); ("k", "b") ] ""))

(* ------------------------------------------------------------------ *)
(* store basics: dedup, persistence without cement, cement              *)
(* ------------------------------------------------------------------ *)

let store_dedup_and_reopen () =
  let dir = fresh_dir () in
  let r1 = record "one" and r2 = record "two" in
  with_store dir (fun st ->
      (match Store.add st r1 with
      | `Added d -> check Alcotest.string "address is the digest"
          (Record.digest r1) d
      | `Duplicate _ -> Alcotest.fail "fresh record reported duplicate");
      ignore (Store.add st r2);
      (match Store.add st r1 with
      | `Duplicate _ -> ()
      | `Added _ -> Alcotest.fail "same content must dedup");
      check Alcotest.int "duplicates count once" 2 (Store.count st);
      match Store.find st (Record.digest r2) with
      | Some r -> check Alcotest.string "find re-reads the bytes"
          (Record.to_bytes r2) (Record.to_bytes r)
      | None -> Alcotest.fail "added record must be findable");
  (* Appends are flushed per record: everything survives a close with
     no cement — the tail is durable against process death. *)
  with_store dir (fun st ->
      check Alcotest.int "tail survives reopen" 2 (Store.count st);
      check Alcotest.int "nothing cemented yet" 0 (Store.segments st);
      Store.cement st;
      check Alcotest.int "cement seals the tail" 1 (Store.segments st);
      check Alcotest.int "tail empty after cement" 0 (Store.tail_count st);
      check Alcotest.int "no records lost" 2 (Store.count st));
  with_store dir (fun st ->
      Alcotest.(check bool) "cemented records persist" true
        (Store.mem st (Record.digest r1) && Store.mem st (Record.digest r2)))

let torn_tail_truncated () =
  let dir = fresh_dir () in
  let r1 = record "kept" and r2 = record "torn-away" in
  with_store dir (fun st -> ignore (Store.add st r1));
  (* Weld half an append onto the tail — what a crash mid-write leaves. *)
  let tail = Filename.concat dir "tail.seg" in
  let torn = Record.to_bytes r2 in
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 tail in
  output_string oc (String.sub torn 0 (String.length torn / 2));
  close_out oc;
  with_store dir (fun st ->
      check Alcotest.int "torn append is invisible" 1 (Store.count st);
      check Alcotest.int "a torn tail is not corruption" 0
        (List.length (Store.quarantined st));
      (* The truncated tail is a clean append point again. *)
      match Store.add st r2 with
      | `Added _ -> check Alcotest.int "append after recovery" 2 (Store.count st)
      | `Duplicate _ -> Alcotest.fail "torn record must not count as present")

(* ------------------------------------------------------------------ *)
(* the shared append log, under both of its formats                     *)
(* ------------------------------------------------------------------ *)

(* One format over [Append_log]: [write] fills a fresh log with one
   record per payload and returns the log file; [line] is the bytes the
   [i]-th record appends; [recover] reopens the (damaged) log, appends
   one more payload and re-reads every payload — [None] when the
   format refuses the file. [header] is the byte length the format
   needs before any record. *)
type log_format = {
  write : string list -> string;
  line : int -> string -> string;
  header : string -> int;
  recover : string -> string -> string list option;
}

let store_format =
  {
    write =
      (fun payloads ->
        let dir = fresh_dir () in
        with_store dir (fun st ->
            List.iter (fun p -> ignore (Store.add st (record p))) payloads);
        Filename.concat dir "tail.seg");
    line = (fun _ p -> Record.to_bytes (record p));
    header = (fun _ -> 0);
    recover =
      (fun file p ->
        let dir = Filename.dirname file in
        with_store dir (fun st -> ignore (Store.add st (record p)));
        Some
          (with_store dir all_records
          |> List.map (fun (_, r) -> r.Record.payload)));
  }

let journal_format =
  let shard i p =
    Svm.Json.(to_string (Obj [ ("shard", Int i); ("payload", String p) ]))
    ^ "\n"
  in
  let open Dist in
  {
    write =
      (fun payloads ->
        let dir = fresh_dir () in
        let job =
          Experiments.Harness.sweep_job
            (Result.get_ok (Experiments.Scenario.find "safe_agreement"))
        in
        let j = Journal.create ~dir ~job ~cells:65 ~shard_size:7 () in
        List.iteri
          (fun i p ->
            Journal.append_shard j ~shard:i ~payload:(Svm.Json.String p))
          payloads;
        Journal.close j;
        Filename.concat (Filename.concat dir (Journal.id j)) "journal.jsonl");
    line = shard;
    header = (fun bytes -> 1 + String.index bytes '\n');
    recover =
      (fun file p ->
        let id = Filename.basename (Filename.dirname file) in
        let dir = Filename.dirname (Filename.dirname file) in
        match Journal.reopen ~dir id with
        | Error _ -> None
        | Ok j -> (
            Journal.append_shard j ~shard:99 ~payload:(Svm.Json.String p);
            Journal.close j;
            match Journal.load ~dir id with
            | Error m -> Alcotest.failf "unreadable after recovery: %s" m
            | Ok l ->
                Some
                  (List.map
                     (function
                       | _, Svm.Json.String p -> p
                       | _ -> Alcotest.fail "payload changed type")
                     l.Journal.l_done)));
  }

(* Any run of records, then a crash's damage — a cut anywhere, a torn
   next record, or a complete garbage line — recovers to exactly the
   records before the damage: open cuts the file to that prefix, and a
   record appended afterwards reads back after them. *)
let append_log_recovery (name, fmt) =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 5)
           (string_size ~gen:(char_range 'a' 'z') (int_range 0 12)))
        (oneof
           [
             map (fun f -> `Cut f) (float_bound_inclusive 1.0);
             map (fun f -> `Torn f) (float_bound_exclusive 1.0);
             map
               (fun g -> `Garbage g)
               (string_size ~gen:(char_range ' ' '~') (int_range 0 8));
           ]))
  in
  QCheck.Test.make ~count:60 ~name:("append log recovery: " ^ name)
    (QCheck.make gen ~print:(fun (payloads, damage) ->
         Printf.sprintf "[%s] then %s" (String.concat "; " payloads)
           (match damage with
           | `Cut f -> Printf.sprintf "cut at %g" f
           | `Torn f -> Printf.sprintf "torn at %g" f
           | `Garbage g -> Printf.sprintf "garbage %S" g)))
    (fun (payloads, damage) ->
      (* distinct payloads: the store dedups identical records *)
      let payloads = List.mapi (Printf.sprintf "%d:%s") payloads in
      let file = fmt.write payloads in
      let intact = read_file file in
      (* [ends.(i)]: the byte length of the header and the first [i]
         records *)
      let ends = Array.make (List.length payloads + 1) (fmt.header intact) in
      List.iteri
        (fun i p -> ends.(i + 1) <- ends.(i) + String.length (fmt.line i p))
        payloads;
      let damaged, valid =
        match damage with
        | `Cut f ->
            let cut = int_of_float (f *. float (String.length intact)) in
            ( String.sub intact 0 cut,
              Array.fold_left (fun v e -> if e <= cut then e else v) (-1) ends
            )
        | `Torn f ->
            let next = fmt.line (List.length payloads) "torn-away" in
            let keep = 1 + int_of_float (f *. float (String.length next - 1)) in
            (intact ^ String.sub next 0 keep, String.length intact)
        | `Garbage g -> (intact ^ g ^ "\n", String.length intact)
      in
      write_file file damaged;
      let kept = List.filteri (fun i _ -> ends.(i + 1) <= valid) payloads in
      match fmt.recover file "NEW" with
      | None ->
          (* only a log whose header is damaged may be refused, untouched *)
          valid < 0 && read_file file = damaged
      | Some read ->
          valid >= 0
          && read_file file
             = String.sub damaged 0 valid ^ fmt.line 99 "NEW"
          && read = kept @ [ "NEW" ])

let append_log_cases =
  List.map
    (fun f ->
      let name, speed, run =
        QCheck_alcotest.to_alcotest (append_log_recovery f)
      in
      Tmpdir.test_case name speed run)
    [ ("store tail", store_format); ("job journal", journal_format) ]

(* ------------------------------------------------------------------ *)
(* corruption: typed quarantine, never a crash                          *)
(* ------------------------------------------------------------------ *)

let bitflip_quarantines () =
  let dir = fresh_dir () in
  let r1 = record "intact" and r2 = record "about-to-be-corrupted" in
  with_store dir (fun st ->
      ignore (Store.add st r1);
      ignore (Store.add st r2);
      Store.cement st);
  let seg = Filename.concat (Filename.concat dir "segments") "seg-00000001.cor" in
  let bytes = Bytes.of_string (read_file seg) in
  (* Flip one bit in the last record's payload. *)
  let i = Bytes.length bytes - 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1));
  write_file seg (Bytes.to_string bytes);
  with_store dir (fun st ->
      (match Store.quarantined st with
      | [ q ] -> (
          match q.Store.q_reason with
          | Store.Q_digest _ -> ()
          | Store.Q_malformed m ->
              Alcotest.failf "expected a digest quarantine, got malformed: %s" m)
      | qs -> Alcotest.failf "expected 1 quarantined record, got %d"
          (List.length qs));
      check Alcotest.int "the intact record still counts" 1 (Store.count st);
      Alcotest.(check bool) "intact record readable" true
        (Store.find st (Record.digest r1) <> None);
      Alcotest.(check bool) "corrupt address gone from the index" false
        (Store.mem st (Record.digest r2));
      (* Corruption blocks compaction instead of being rewritten. *)
      match Store.compact st with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "compaction must refuse a quarantined corpus")

(* Quarantines found at open are listed oldest first, as [quarantined]
   promises: the order [corpus --check] prints them in. *)
let quarantine_order () =
  let dir = fresh_dir () in
  let rs = List.map record [ "first"; "second"; "third" ] in
  with_store dir (fun st ->
      List.iter (fun r -> ignore (Store.add st r)) rs;
      Store.cement st);
  let seg = Filename.concat (Filename.concat dir "segments") "seg-00000001.cor" in
  let bytes = Bytes.of_string (read_file seg) in
  let flip i =
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1))
  in
  let len r = String.length (Record.to_bytes r) in
  let l0 = len (List.nth rs 0) and l1 = len (List.nth rs 1) in
  (* one payload bit of the first and of the third record *)
  flip (l0 - 2);
  flip (Bytes.length bytes - 2);
  write_file seg (Bytes.to_string bytes);
  with_store dir (fun st ->
      check
        Alcotest.(list int)
        "quarantined offsets, oldest first" [ 0; l0 + l1 ]
        (List.map (fun q -> q.Store.q_offset) (Store.quarantined st)))

(* ------------------------------------------------------------------ *)
(* compaction: byte-identity in, byte-identity out                      *)
(* ------------------------------------------------------------------ *)

let compaction_preserves_bytes () =
  let dir = fresh_dir () in
  let records = List.init 9 (fun i -> record (Printf.sprintf "payload %d" i)) in
  with_store dir (fun st ->
      List.iteri
        (fun i r ->
          ignore (Store.add st r);
          (* Three cements → three segments to merge. *)
          if i mod 3 = 2 then Store.cement st)
        records);
  let before = with_store dir all_records in
  with_store dir (fun st ->
      match Store.compact st with
      | Error m -> Alcotest.failf "compact: %s" m
      | Ok n -> check Alcotest.int "every record compacted" 9 n);
  with_store dir (fun st ->
      check Alcotest.int "one segment afterwards" 1 (Store.segments st);
      let after = all_records st in
      check Alcotest.int "record count stable" (List.length before)
        (List.length after);
      List.iter2
        (fun (d, r) (d', r') ->
          check Alcotest.string "storage order and addresses stable" d d';
          check Alcotest.string "record bytes stable" (Record.to_bytes r)
            (Record.to_bytes r'))
        before after)

(* ------------------------------------------------------------------ *)
(* crash-safety end to end: the real binary, really SIGKILLed           *)
(* ------------------------------------------------------------------ *)

let soak_cli ?chaos ~dir ~until () =
  let args =
    [
      exe; "soak"; "--algo"; "safe_agreement_no_cancel"; "--seed"; "7";
      "--until"; string_of_int until; "--batch"; "20"; "--corpus"; dir;
      "--resume";
    ]
    @
    match chaos with
    | None -> []
    | Some (mode, at) -> [ "--chaos-store"; mode; "--chaos-at"; string_of_int at ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin devnull devnull
  in
  Unix.close devnull;
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error _ -> Unix.WEXITED (-1)

(* One chaos mode end to end: the soak is killed mid-append by the
   store's own hook, recovery finds no corruption, and resuming to the
   same absolute index converges on exactly the findings of an
   uninterrupted soak. *)
let killed_soak_converges mode () =
  let reference = fresh_dir () in
  (match soak_cli ~dir:reference ~until:80 () with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "reference soak failed");
  let ref_findings = finding_digests reference in
  Alcotest.(check bool) "the seeded bug is actually found" true
    (ref_findings <> []);
  let dir = fresh_dir () in
  (match soak_cli ~chaos:(mode, 2) ~dir ~until:80 () with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | Unix.WEXITED n -> Alcotest.failf "chaos %s did not kill (exit %d)" mode n
  | _ -> Alcotest.failf "chaos %s did not SIGKILL" mode);
  with_store dir (fun st ->
      check Alcotest.int
        (Printf.sprintf "%s chaos leaves no corruption" mode)
        0
        (List.length (Store.quarantined st)));
  (match soak_cli ~dir ~until:80 () with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "resumed soak failed");
  check
    Alcotest.(list string)
    "killed+resumed corpus content-identical to uninterrupted" ref_findings
    (finding_digests dir)

(* ------------------------------------------------------------------ *)
(* soak dedup across runs (library level)                               *)
(* ------------------------------------------------------------------ *)

let soak_cfg =
  {
    Experiments.Soak.default_config with
    Experiments.Soak.seed = 7;
    schedules = Some 80;
    batch = 20;
  }

let soak_run ?(cfg = soak_cfg) dir =
  let s =
    match Experiments.Scenario.find "safe_agreement_no_cancel" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Experiments.Soak.run cfg ~corpus_dir:dir s with
  | Ok o -> o
  | Error m -> Alcotest.failf "soak: %s" m

let soak_dedups_across_runs () =
  let dir = fresh_dir () in
  let first = soak_run dir in
  Alcotest.(check bool) "first run reports its findings" true
    (first.Experiments.Soak.o_new_findings <> []);
  check Alcotest.int "nothing to dedup against yet" 0
    first.Experiments.Soak.o_dup_findings;
  (* Same schedules again: every counterexample is already addressed. *)
  let second = soak_run dir in
  check
    Alcotest.(list string)
    "re-found counterexamples are not re-reported" []
    second.Experiments.Soak.o_new_findings;
  check Alcotest.int "they dedup instead"
    (List.length first.Experiments.Soak.o_new_findings)
    second.Experiments.Soak.o_dup_findings;
  (* Resume continues past both, not over them. *)
  let resumed =
    soak_run
      ~cfg:
        {
          soak_cfg with
          Experiments.Soak.schedules = Some 10;
          resume = true;
        }
      dir
  in
  check Alcotest.int "resume starts at the checkpoint" 80
    resumed.Experiments.Soak.o_first_index

(* A soak must not leave its GC settings behind in the caller. *)
let soak_leaves_gc_alone () =
  let before = (Gc.get ()).Gc.minor_heap_size in
  let cfg = { soak_cfg with Experiments.Soak.schedules = Some 20 } in
  ignore (soak_run ~cfg (fresh_dir ()));
  check Alcotest.int "minor heap size as found" before
    (Gc.get ()).Gc.minor_heap_size

(* The resume index after a batch [100, 140) dealt in chunks of 16: the
   end of the longest gap-free run from the batch's start. *)
let soak_durable_next () =
  let next chunks = Experiments.Soak.durable_next ~lo:100 chunks in
  check Alcotest.int "all chunks complete" 140
    (next [ (100, 116, 16); (116, 132, 16); (132, 140, 8) ]);
  check Alcotest.int "gap in the first chunk" 105
    (next [ (100, 116, 5); (116, 132, 16); (132, 140, 8) ]);
  check Alcotest.int "middle chunk never started" 116
    (next [ (100, 116, 16); (116, 132, 0); (132, 140, 8) ]);
  check Alcotest.int "gap in the last chunk" 135
    (next [ (100, 116, 16); (116, 132, 16); (132, 140, 3) ]);
  check Alcotest.int "no chunks" 100 (next [])

let suite =
  [
    ( "corpus",
      [
        Tmpdir.test_case "record round-trip, one canonical rendering" `Quick
          record_roundtrip;
        Tmpdir.test_case "unframable metadata is rejected" `Quick
          record_rejects_unframable_meta;
        Tmpdir.test_case "dedup, per-append durability, cement" `Quick
          store_dedup_and_reopen;
        Tmpdir.test_case "torn tail truncated on reopen" `Quick
          torn_tail_truncated;
        Tmpdir.test_case "bit-flip quarantines, typed; compaction refuses"
          `Quick bitflip_quarantines;
        Tmpdir.test_case "open-time quarantines are listed oldest first"
          `Quick quarantine_order;
        Tmpdir.test_case "compaction is byte-identical to its input" `Quick
          compaction_preserves_bytes;
        Tmpdir.test_case "SIGKILL mid-append, resume converges" `Quick
          (killed_soak_converges "kill");
        Tmpdir.test_case "torn append + SIGKILL, resume converges" `Quick
          (killed_soak_converges "torn");
        Tmpdir.test_case "findings dedup across soak runs" `Quick
          soak_dedups_across_runs;
        Tmpdir.test_case "soak leaves the GC settings alone" `Quick
          soak_leaves_gc_alone;
        Tmpdir.test_case "durable prefix over chunks" `Quick
          soak_durable_next;
      ]
      @ append_log_cases );
  ]
