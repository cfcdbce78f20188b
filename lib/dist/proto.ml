module Json = Svm.Json

type sweep_params = {
  sw_tiers : string list;
  sw_max_faults : int;
  sw_op_window : int;
  sw_max_runs : int;
  sw_budget : int option;
}

type explore_params = {
  ex_max_steps : int;
  ex_max_crashes : int;
  ex_max_runs : int;
  ex_dedup : bool;
}

type mode = Sweep of sweep_params | Explore of explore_params

type job = {
  scenario : string;
  nprocs : int option;
  source : string option;
  mode : mode;
}

(* Upper bound on an embedded DSL scenario source. Kept equal to
   [Sdl.Compile.max_source_bytes] (this module cannot depend on [sdl];
   test_sdl pins the equality): the decoder enforces it, so a remote
   client cannot make a server parse an arbitrarily large program. *)
let max_source_bytes = 65536

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let opt_int = function None -> Json.Null | Some i -> Json.Int i

let job_to_json j =
  let mode_fields =
    match j.mode with
    | Sweep p ->
        [
          ("mode", Json.String "sweep");
          ("tiers", Json.List (List.map (fun s -> Json.String s) p.sw_tiers));
          ("max_faults", Json.Int p.sw_max_faults);
          ("op_window", Json.Int p.sw_op_window);
          ("max_runs", Json.Int p.sw_max_runs);
          ("budget", opt_int p.sw_budget);
        ]
    | Explore p ->
        [
          ("mode", Json.String "explore");
          ("max_steps", Json.Int p.ex_max_steps);
          ("max_crashes", Json.Int p.ex_max_crashes);
          ("max_runs", Json.Int p.ex_max_runs);
          ("dedup", Json.Bool p.ex_dedup);
        ]
  in
  (* [source] is emitted only when present, so the fingerprint (and any
     journal recorded against it) of a plain registry job is unchanged
     from protocol v2. *)
  let source_fields =
    match j.source with None -> [] | Some s -> [ ("source", Json.String s) ]
  in
  Json.Obj
    (("scenario", Json.String j.scenario)
    :: ("nprocs", opt_int j.nprocs)
    :: (source_fields @ mode_fields))

let job_fingerprint j = Json.to_string (job_to_json j)

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name conv v =
  match Json.member name v with
  | Some f -> (
      match conv f with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_int_field name v =
  match Json.member name v with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an int or null" name)

let to_bool = function Json.Bool b -> Some b | _ -> None

(* Counts and bounds from the wire: planning with a negative one would
   raise, so it is a typed rejection here. *)
let non_negative name n =
  if n < 0 then Error (Printf.sprintf "field %S must not be negative" name)
  else Ok n

let count_field name v =
  Result.bind (field name Json.to_int v) (non_negative name)

let opt_str_field name v =
  match Json.member name v with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string or null" name)

let job_of_json v =
  let* scenario = field "scenario" Json.to_str v in
  let* nprocs = opt_int_field "nprocs" v in
  let* source = opt_str_field "source" v in
  let* () =
    match source with
    | Some s when String.length s > max_source_bytes ->
        Error
          (Printf.sprintf "scenario source is %d bytes (cap %d)"
             (String.length s) max_source_bytes)
    | _ -> Ok ()
  in
  let* mode_name = field "mode" Json.to_str v in
  match mode_name with
  | "sweep" ->
      let* tiers = field "tiers" Json.to_list v in
      let* sw_tiers =
        List.fold_right
          (fun t acc ->
            let* acc = acc in
            match Json.to_str t with
            | Some s -> Ok (s :: acc)
            | None -> Error "tiers must be strings")
          tiers (Ok [])
      in
      let* sw_max_faults = count_field "max_faults" v in
      let* sw_op_window = count_field "op_window" v in
      let* sw_max_runs = count_field "max_runs" v in
      let* sw_budget = opt_int_field "budget" v in
      let* _ = non_negative "budget" (Option.value sw_budget ~default:0) in
      Ok
        {
          scenario;
          nprocs;
          source;
          mode =
            Sweep { sw_tiers; sw_max_faults; sw_op_window; sw_max_runs; sw_budget };
        }
  | "explore" ->
      let* ex_max_steps = count_field "max_steps" v in
      let* ex_max_crashes = count_field "max_crashes" v in
      let* ex_max_runs = count_field "max_runs" v in
      let* ex_dedup = field "dedup" to_bool v in
      Ok
        {
          scenario;
          nprocs;
          source;
          mode = Explore { ex_max_steps; ex_max_crashes; ex_max_runs; ex_dedup };
        }
  | m -> Error (Printf.sprintf "unknown mode %S" m)

(* ------------------------------------------------------------------ *)
(* Network handshake                                                    *)
(* ------------------------------------------------------------------ *)

let net_magic = "asmsim-net"

(* v2: pongs may carry a metrics snapshot (worker push), and clients may
   ask for live stats (Cs_stats/Sc_stats). The version rides the hello,
   so a v1 peer is rejected with a typed reason at the door — and since
   the registry fingerprint also folds the version in, mixed builds can
   never negotiate past the handshake by accident.
   v3: jobs may embed a DSL scenario source ([job.source], size-capped),
   letting clients submit workloads the server's binary never
   hard-coded.
   v4: the server tells each worker when a job is over ([Nw_job_over]),
   so a long-lived worker releases the job's plan instead of keeping
   every plan it ever expanded.
   v5: an explore plan no longer depends on the run budget (phase A
   never stops splitting at [max_runs] tasks), so a capped explore job
   expands to more tasks than a v4 binary would deal.
   v6: a worker sends no progress frames mid-shard; the heartbeat ping,
   which it answers between cells, is the only liveness signal, and a
   v5 worker's progress frame would be undecodable here. *)
let net_version = 6

type role = Worker_role | Client_role

let role_name = function Worker_role -> "worker" | Client_role -> "client"

type hello = { h_version : int; h_role : role; h_fingerprint : string }

let hello_to_json h =
  Json.Obj
    [
      ("magic", Json.String net_magic);
      ("version", Json.Int h.h_version);
      ("role", Json.String (role_name h.h_role));
      ("fingerprint", Json.String h.h_fingerprint);
    ]

let hello_of_json v =
  let* magic = field "magic" Json.to_str v in
  if not (String.equal magic net_magic) then
    Error (Printf.sprintf "bad magic %S" magic)
  else
    let* h_version = field "version" Json.to_int v in
    let* role = field "role" Json.to_str v in
    let* h_fingerprint = field "fingerprint" Json.to_str v in
    match role with
    | "worker" -> Ok { h_version; h_role = Worker_role; h_fingerprint }
    | "client" -> Ok { h_version; h_role = Client_role; h_fingerprint }
    | r -> Error (Printf.sprintf "unknown role %S" r)

type welcome = Welcome | Rejected of string

let welcome_to_json = function
  | Welcome ->
      Json.Obj
        [ ("t", Json.String "welcome"); ("version", Json.Int net_version) ]
  | Rejected reason ->
      Json.Obj [ ("t", Json.String "reject"); ("reason", Json.String reason) ]

let welcome_of_json v =
  let* t = field "t" Json.to_str v in
  match t with
  | "welcome" -> Ok Welcome
  | "reject" ->
      let* reason = field "reason" Json.to_str v in
      Ok (Rejected reason)
  | t -> Error (Printf.sprintf "unknown handshake reply %S" t)

(* ------------------------------------------------------------------ *)
(* Network worker session (job-tagged)                                  *)
(* ------------------------------------------------------------------ *)

type net_to_worker =
  | Nw_job of { jid : string; job : job }
  | Nw_assign of { jid : string; shard : int; lo : int; hi : int }
  | Nw_job_over of { jid : string }
  | Nw_ping
  | Nw_shutdown

type net_from_worker =
  | Nf_job_ok of { jid : string; cells : int }
  | Nf_job_err of { jid : string; msg : string }
  | Nf_pong of { metrics : Svm.Json.t option }
  | Nf_result of { jid : string; shard : int; payload : Svm.Json.t }

let net_to_worker_to_json = function
  | Nw_job { jid; job } ->
      Json.Obj
        [
          ("t", Json.String "job");
          ("jid", Json.String jid);
          ("job", job_to_json job);
        ]
  | Nw_assign { jid; shard; lo; hi } ->
      Json.Obj
        [
          ("t", Json.String "assign");
          ("jid", Json.String jid);
          ("shard", Json.Int shard);
          ("lo", Json.Int lo);
          ("hi", Json.Int hi);
        ]
  | Nw_job_over { jid } ->
      Json.Obj [ ("t", Json.String "job-over"); ("jid", Json.String jid) ]
  | Nw_ping -> Json.Obj [ ("t", Json.String "ping") ]
  | Nw_shutdown -> Json.Obj [ ("t", Json.String "shutdown") ]

let net_to_worker_of_json v =
  let* t = field "t" Json.to_str v in
  match t with
  | "job" -> (
      let* jid = field "jid" Json.to_str v in
      match Json.member "job" v with
      | Some j ->
          let* job = job_of_json j in
          Ok (Nw_job { jid; job })
      | None -> Error "job frame without a job")
  | "assign" ->
      let* jid = field "jid" Json.to_str v in
      let* shard = field "shard" Json.to_int v in
      let* lo = field "lo" Json.to_int v in
      let* hi = field "hi" Json.to_int v in
      if shard < 0 || lo < 0 || hi < lo then Error "assign range is malformed"
      else Ok (Nw_assign { jid; shard; lo; hi })
  | "job-over" ->
      let* jid = field "jid" Json.to_str v in
      Ok (Nw_job_over { jid })
  | "ping" -> Ok Nw_ping
  | "shutdown" -> Ok Nw_shutdown
  | t -> Error (Printf.sprintf "unknown server message %S" t)

let net_from_worker_to_json = function
  | Nf_job_ok { jid; cells } ->
      Json.Obj
        [
          ("t", Json.String "job-ok");
          ("jid", Json.String jid);
          ("cells", Json.Int cells);
        ]
  | Nf_job_err { jid; msg } ->
      Json.Obj
        [
          ("t", Json.String "job-err");
          ("jid", Json.String jid);
          ("msg", Json.String msg);
        ]
  | Nf_pong { metrics } ->
      Json.Obj
        (("t", Json.String "pong")
        :: (match metrics with None -> [] | Some m -> [ ("metrics", m) ]))
  | Nf_result { jid; shard; payload } ->
      Json.Obj
        [
          ("t", Json.String "result");
          ("jid", Json.String jid);
          ("shard", Json.Int shard);
          ("payload", payload);
        ]

let net_from_worker_of_json v =
  let* t = field "t" Json.to_str v in
  match t with
  | "job-ok" ->
      let* jid = field "jid" Json.to_str v in
      let* cells = field "cells" Json.to_int v in
      Ok (Nf_job_ok { jid; cells })
  | "job-err" ->
      let* jid = field "jid" Json.to_str v in
      let* msg = field "msg" Json.to_str v in
      Ok (Nf_job_err { jid; msg })
  | "pong" -> Ok (Nf_pong { metrics = Json.member "metrics" v })
  | "result" -> (
      let* jid = field "jid" Json.to_str v in
      let* shard = field "shard" Json.to_int v in
      match Json.member "payload" v with
      | Some payload -> Ok (Nf_result { jid; shard; payload })
      | None -> Error "result without a payload")
  | t -> Error (Printf.sprintf "unknown worker message %S" t)

(* ------------------------------------------------------------------ *)
(* Network client session                                               *)
(* ------------------------------------------------------------------ *)

type client_to_server =
  | Cs_submit of { job : job; resume : string option }
  | Cs_stats
  | Cs_pong

type server_to_client =
  | Sc_accepted of { jid : string; cells : int; shard_size : int }
  | Sc_rejected of string
  | Sc_shard of { shard : int; payload : Svm.Json.t }
  | Sc_done of { executed : int; resumed : int }
  | Sc_failed of string
  | Sc_stats of Svm.Json.t
  | Sc_draining
  | Sc_ping

let client_to_server_to_json = function
  | Cs_submit { job; resume } ->
      Json.Obj
        [
          ("t", Json.String "submit");
          ("job", job_to_json job);
          ( "resume",
            match resume with None -> Json.Null | Some id -> Json.String id );
        ]
  | Cs_stats -> Json.Obj [ ("t", Json.String "stats") ]
  | Cs_pong -> Json.Obj [ ("t", Json.String "pong") ]

let client_to_server_of_json v =
  let* t = field "t" Json.to_str v in
  match t with
  | "submit" -> (
      match Json.member "job" v with
      | None -> Error "submit without a job"
      | Some j -> (
          let* job = job_of_json j in
          match Json.member "resume" v with
          | None | Some Json.Null -> Ok (Cs_submit { job; resume = None })
          | Some (Json.String id) -> Ok (Cs_submit { job; resume = Some id })
          | Some _ -> Error "resume must be a job id or null"))
  | "stats" -> Ok Cs_stats
  | "pong" -> Ok Cs_pong
  | t -> Error (Printf.sprintf "unknown client message %S" t)

let server_to_client_to_json = function
  | Sc_accepted { jid; cells; shard_size } ->
      Json.Obj
        [
          ("t", Json.String "accepted");
          ("jid", Json.String jid);
          ("cells", Json.Int cells);
          ("shard_size", Json.Int shard_size);
        ]
  | Sc_rejected reason ->
      Json.Obj [ ("t", Json.String "rejected"); ("reason", Json.String reason) ]
  | Sc_shard { shard; payload } ->
      Json.Obj
        [
          ("t", Json.String "shard");
          ("shard", Json.Int shard);
          ("payload", payload);
        ]
  | Sc_done { executed; resumed } ->
      Json.Obj
        [
          ("t", Json.String "done");
          ("executed", Json.Int executed);
          ("resumed", Json.Int resumed);
        ]
  | Sc_failed msg ->
      Json.Obj [ ("t", Json.String "failed"); ("msg", Json.String msg) ]
  | Sc_stats payload ->
      Json.Obj [ ("t", Json.String "stats"); ("payload", payload) ]
  | Sc_draining -> Json.Obj [ ("t", Json.String "draining") ]
  | Sc_ping -> Json.Obj [ ("t", Json.String "ping") ]

let server_to_client_of_json v =
  let* t = field "t" Json.to_str v in
  match t with
  | "accepted" ->
      let* jid = field "jid" Json.to_str v in
      let* cells = field "cells" Json.to_int v in
      let* shard_size = field "shard_size" Json.to_int v in
      Ok (Sc_accepted { jid; cells; shard_size })
  | "rejected" ->
      let* reason = field "reason" Json.to_str v in
      Ok (Sc_rejected reason)
  | "shard" -> (
      let* shard = field "shard" Json.to_int v in
      match Json.member "payload" v with
      | Some payload -> Ok (Sc_shard { shard; payload })
      | None -> Error "shard without a payload")
  | "done" ->
      let* executed = field "executed" Json.to_int v in
      let* resumed = field "resumed" Json.to_int v in
      Ok (Sc_done { executed; resumed })
  | "failed" ->
      let* msg = field "msg" Json.to_str v in
      Ok (Sc_failed msg)
  | "stats" -> (
      match Json.member "payload" v with
      | Some payload -> Ok (Sc_stats payload)
      | None -> Error "stats without a payload")
  | "draining" -> Ok Sc_draining
  | "ping" -> Ok Sc_ping
  | t -> Error (Printf.sprintf "unknown server reply %S" t)
