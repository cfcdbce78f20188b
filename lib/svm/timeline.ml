type span = { step : int; pid : int; info : Op.info; corrupted : bool }

type fault = Crash | Omit | Restart

type instant = { step : int; pid : int; fault : fault }

type t = {
  spans : span list;
  instants : instant list;
  nprocs : int;
  dropped : int;
  decisions : int;
}

let fault_name = function
  | Crash -> "crash"
  | Omit -> "omission"
  | Restart -> "restart"

let of_trace ?nprocs trace =
  let decisions = Array.of_list (Trace.decisions trace) in
  let decision_at step =
    if step >= 0 && step < Array.length decisions then Some decisions.(step)
    else None
  in
  let spans = ref [] and instants = ref [] in
  let max_pid = ref (-1) in
  List.iter
    (fun { Trace.step; pid; info } ->
      if pid > !max_pid then max_pid := pid;
      match info with
      | Some info ->
          let corrupted =
            match decision_at step with
            | Some (Trace.Byz _) -> true
            | Some _ | None -> false
          in
          spans := { step; pid; info; corrupted } :: !spans
      | None ->
          (* Faults record an event without op info; the decision log
             names the fault kind. An info-less event whose decision is
             a plain [Sched] has no standard source — render it as a
             restart-free crash marker only when the log says so. *)
          let fault =
            match decision_at step with
            | Some (Trace.Crash _) -> Some Crash
            | Some (Trace.Omit _) -> Some Omit
            | Some (Trace.Restart _) -> Some Restart
            | Some (Trace.Sched _ | Trace.Byz _) | None -> None
          in
          Option.iter
            (fun fault -> instants := { step; pid; fault } :: !instants)
            fault)
    (Trace.events trace);
  {
    spans = List.rev !spans;
    instants = List.rev !instants;
    nprocs = Option.value nprocs ~default:(!max_pid + 1);
    dropped = Trace.dropped trace;
    decisions = Array.length decisions;
  }

let instance_name (info : Op.info) =
  Printf.sprintf "%s[%s]" info.Op.fam
    (String.concat ";" (List.map string_of_int info.Op.key))

let span_name s =
  Printf.sprintf "%s %s"
    (Op.kind_name s.info.Op.kind)
    (instance_name s.info)

(* ------------------------------------------------------------------ *)
(* Causality: happens-before from program order + per-object access      *)
(* order; each span costs one step, so the critical path length is the   *)
(* minimum number of sequential steps any schedule must spend.           *)
(* ------------------------------------------------------------------ *)

let longest_chain ~lane ~chain ~cost items =
  let by_lane = Hashtbl.create 8 and by_chain = Hashtbl.create 32 in
  let depth tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  List.fold_left_map
    (fun critical x ->
      let l = lane x and c = chain x in
      let d_lane = depth by_lane l and d_chain = depth by_chain c in
      let d = cost x + max d_lane d_chain in
      Hashtbl.replace by_lane l d;
      Hashtbl.replace by_chain c d;
      (max critical d, (d_lane, d_chain)))
    0 items

type hot_instance = {
  instance : string;
  accesses : int;
  distinct_pids : int;
  on_critical_path : int;
}

type causality = {
  span_count : int;
  critical_path : int;
  parallelism : float;
  hot : hot_instance list;
}

let causality ?(top = 8) t =
  let critical, preds =
    longest_chain
      ~lane:(fun (s : span) -> s.pid)
      ~chain:(fun s -> instance_name s.info)
      ~cost:(fun _ -> 1) t.spans
  in
  let acc : (string, int ref * (int, unit) Hashtbl.t * int ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter2
    (fun (s : span) (d_pid, d_obj) ->
      let obj = instance_name s.info in
      let ops, pids, path =
        match Hashtbl.find_opt acc obj with
        | Some entry -> entry
        | None ->
            let entry = (ref 0, Hashtbl.create 4, ref 0) in
            Hashtbl.add acc obj entry;
            entry
      in
      incr ops;
      Hashtbl.replace pids s.pid ();
      (* A span extends the critical path through this object when its
         depth came from the object chain rather than program order. *)
      if d_obj >= d_pid && d_obj > 0 then incr path)
    t.spans preds;
  let hot =
    Hashtbl.fold
      (fun instance (ops, pids, path) l ->
        {
          instance;
          accesses = !ops;
          distinct_pids = Hashtbl.length pids;
          on_critical_path = !path;
        }
        :: l)
      acc []
    |> List.sort (fun a b ->
           match compare b.accesses a.accesses with
           | 0 -> String.compare a.instance b.instance
           | c -> c)
  in
  let count = List.length t.spans in
  {
    span_count = count;
    critical_path = critical;
    parallelism =
      (if critical = 0 then 1. else float_of_int count /. float_of_int critical);
    hot = List.filteri (fun i _ -> i < top) hot;
  }

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                            *)
(* ------------------------------------------------------------------ *)

type complete = {
  tid : int;
  ts : int;
  dur : int;
  name : string;
  args : (string * Json.t) list;
  cname : string option;
}

let chrome ~lanes ?(instants = []) ?(dropped = 0) ?(decisions = 0)
    ~critical_path ?(meta = []) spans =
  let event ph tid fields =
    Json.Obj
      (("ph", Json.String ph) :: ("pid", Json.Int 0) :: ("tid", Json.Int tid)
     :: fields)
  in
  let lane tid name =
    event "M" tid
      [
        ("name", Json.String "thread_name");
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]
  in
  let complete c =
    event "X" c.tid
      ([
         ("ts", Json.Int c.ts);
         ("dur", Json.Int c.dur);
         ("name", Json.String c.name);
         ("args", Json.Obj c.args);
       ]
      @ Option.fold ~none:[] ~some:(fun n -> [ ("cname", Json.String n) ])
          c.cname)
  in
  let instant (i : instant) =
    let fault = fault_name i.fault in
    event "i" i.pid
      [
        ("ts", Json.Int i.step);
        ("s", Json.String "t");
        ("name", Json.String (Printf.sprintf "%s p%d" fault i.pid));
        ("args", Json.Obj [ ("fault", Json.String fault) ]);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.mapi lane lanes @ List.map complete spans
         @ List.map instant instants) );
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          ([
             ("nprocs", Json.Int (List.length lanes));
             ("spans", Json.Int (List.length spans));
             ("fault_instants", Json.Int (List.length instants));
             ("dropped_events", Json.Int dropped);
             ("decisions", Json.Int decisions);
             ("critical_path", Json.Int critical_path);
           ]
          @ List.map (fun (k, v) -> (k, Json.String v)) meta) );
    ]

let to_chrome ?meta t =
  let complete (s : span) =
    {
      tid = s.pid;
      ts = s.step;
      dur = 1;
      name = span_name s;
      args =
        [
          ("kind", Json.String (Op.kind_name s.info.Op.kind));
          ("instance", Json.String (instance_name s.info));
        ]
        @ if s.corrupted then [ ("corrupted", Json.Bool true) ] else [];
      cname = (if s.corrupted then Some "terrible" else None);
    }
  in
  chrome
    ~lanes:(List.init t.nprocs (Printf.sprintf "p%d"))
    ~instants:t.instants ~dropped:t.dropped ~decisions:t.decisions
    ~critical_path:(causality t).critical_path ?meta
    (List.map complete t.spans)

(* ------------------------------------------------------------------ *)
(* Text and CSV                                                         *)
(* ------------------------------------------------------------------ *)

let rows t ~span ~instant =
  List.map (fun (s : span) -> (s.step, s.pid, span s)) t.spans
  @ List.map (fun (i : instant) -> (i.step, i.pid, instant i)) t.instants
  |> List.sort compare

let to_text t =
  let b = Buffer.create 4096 in
  if t.dropped > 0 then
    Printf.bprintf b
      "WARNING: trace truncated — %d earlier events dropped; timeline is \
       partial\n"
      t.dropped;
  Printf.bprintf b "timeline: %d processes, %d spans, %d fault instants\n"
    t.nprocs (List.length t.spans) (List.length t.instants);
  List.iter
    (fun (step, pid, label) -> Printf.bprintf b "%6d  p%-3d %s\n" step pid label)
    (rows t
       ~span:(fun s ->
         span_name s ^ if s.corrupted then " [BYZ]" else "")
       ~instant:(fun i -> Printf.sprintf "** %s **" (fault_name i.fault)));
  let c = causality t in
  Printf.bprintf b
    "\ncausality: %d spans, critical path %d steps, parallelism %.2fx\n"
    c.span_count c.critical_path c.parallelism;
  Buffer.add_string b "hottest instances (accesses, distinct pids, critical):\n";
  List.iter
    (fun h ->
      Printf.bprintf b "  %-28s %6d %4d %6d\n" h.instance h.accesses
        h.distinct_pids h.on_critical_path)
    c.hot;
  Buffer.contents b

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let b = Buffer.create 4096 in
  if t.dropped > 0 then
    Printf.bprintf b "# truncated: %d earlier events dropped\n" t.dropped;
  Buffer.add_string b "step,pid,event,kind,instance,corrupted\n";
  List.iter
    (fun (_, _, row) -> Printf.bprintf b "%s\n" row)
    (rows t
       ~span:(fun s ->
         Printf.sprintf "%d,%d,op,%s,%s,%b" s.step s.pid
           (csv_escape (Op.kind_name s.info.Op.kind))
           (csv_escape (instance_name s.info))
           s.corrupted)
       ~instant:(fun i ->
         Printf.sprintf "%d,%d,%s,,," i.step i.pid (fault_name i.fault)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome-export validation (the CI side)                               *)
(* ------------------------------------------------------------------ *)

type chrome_summary = {
  events : int;
  spans_per_pid : (int * int) list;  (** (tid, span count), sorted *)
  instants : int;
  recorded_faults : int;  (** otherData.fault_instants *)
  dropped : int;
}

let validate_chrome json =
  let ( let* ) = Result.bind in
  let get what conv key j =
    Option.to_result ~none:("missing " ^ what)
      (Option.bind (Json.member key j) conv)
  in
  let* events = get "traceEvents array" Json.to_list "traceEvents" json in
  let spans : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let faulted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let* instants =
    List.fold_left
      (fun acc ev ->
        let* instants = acc in
        let* ph = get "event ph" Json.to_str "ph" ev in
        let* tid = get "event tid" Json.to_int "tid" ev in
        let* _name = get "event name" Json.to_str "name" ev in
        match ph with
        | "X" ->
            let* _ts = get "span ts" Json.to_int "ts" ev in
            let* _dur = get "span dur" Json.to_int "dur" ev in
            Hashtbl.replace spans tid
              (1 + Option.value ~default:0 (Hashtbl.find_opt spans tid));
            Ok instants
        | "i" ->
            (* A faulted pid is not live: it need not have spans. *)
            Hashtbl.replace faulted tid ();
            Ok (instants + 1)
        | "M" -> Ok instants
        | ph -> Error (Printf.sprintf "unknown event phase %S" ph))
      (Ok 0) events
  in
  let other k =
    Option.value ~default:0
      (Option.bind
         (Option.bind (Json.member "otherData" json) (Json.member k))
         Json.to_int)
  in
  let nprocs = other "nprocs" in
  let recorded_faults = other "fault_instants" in
  let dropped = other "dropped_events" in
  let* () =
    if recorded_faults <> instants then
      Error
        (Printf.sprintf "otherData says %d fault instants, found %d"
           recorded_faults instants)
    else Ok ()
  in
  (* Every live pid — declared by metadata, never marked faulted — must
     have at least one span, unless the trace admits truncation. *)
  let missing =
    if dropped > 0 then []
    else
      List.init (max 0 nprocs) Fun.id
      |> List.filter (fun pid ->
             not (Hashtbl.mem faulted pid || Hashtbl.mem spans pid))
  in
  let* () =
    if missing = [] then Ok ()
    else
      Error
        (Printf.sprintf "live pid(s) without any span: %s"
           (String.concat "," (List.map (Printf.sprintf "p%d") missing)))
  in
  Ok
    {
      events = List.length events;
      spans_per_pid =
        Hashtbl.fold (fun tid n acc -> (tid, n) :: acc) spans []
        |> List.sort compare;
      instants;
      recorded_faults;
      dropped;
    }
