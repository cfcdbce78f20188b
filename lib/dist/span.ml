module Json = Svm.Json
module Timeline = Svm.Timeline

type pspan = {
  ps_proc : string;
  ps_phase : string;
  ps_job : string;
  ps_shard : int;
  ps_ts : int;
  ps_dur : int;
}

(* A span line is the compact JSON object [emit] writes. *)
let of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name = Option.bind (Json.member name j) Json.to_int in
  match (str "proc", str "phase", str "job", int "shard", int "ts", int "dur")
  with
  | Some ps_proc, Some ps_phase, Some ps_job, Some ps_shard, Some ps_ts,
    Some ps_dur ->
      Some { ps_proc; ps_phase; ps_job; ps_shard; ps_ts; ps_dur }
  | _ -> None

type t = { proc : string; oc : out_channel }

let create ~proc ~oc = { proc; oc }

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let emit t ~phase ~job ~shard ~start_us =
  match t with
  | None -> ()
  | Some t ->
      let span =
        Json.Obj
          [
            ("proc", Json.String t.proc);
            ("phase", Json.String phase);
            ("job", Json.String job);
            ("shard", Json.Int shard);
            ("ts", Json.Int start_us);
            ("dur", Json.Int (max 1 (now_us () - start_us)));
          ]
      in
      output_string t.oc (Json.to_string span);
      output_char t.oc '\n';
      flush t.oc

let job_tag fp = Digest.to_hex (Digest.string fp)

let load_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let spans = ref [] in
          let skipped = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if String.trim line <> "" then
                 match Result.map of_json (Json.of_string line) with
                 | Ok (Some s) -> spans := s :: !spans
                 | Ok None | Error _ -> incr skipped
             done
           with End_of_file -> ());
          Ok (List.rev !spans, !skipped))

(* Within one lane spans order by time (program order), and spans
   sharing a (job, shard) key chain across lanes (admit → dispatch →
   receive → execute → reply → merge is the life of one shard, whichever
   processes it visits). *)
let merge spans =
  let lanes = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun p ->
      if not (Hashtbl.mem lanes p.ps_proc) then begin
        Hashtbl.add lanes p.ps_proc (Hashtbl.length lanes);
        order := p.ps_proc :: !order
      end)
    spans;
  let procs = List.rev !order in
  let lane p = Hashtbl.find lanes p.ps_proc in
  let dur p = max 1 p.ps_dur in
  let t0 = List.fold_left (fun acc p -> min acc p.ps_ts) max_int spans in
  let sorted =
    List.stable_sort
      (fun a b -> compare (a.ps_ts, lane a) (b.ps_ts, lane b))
      spans
  in
  let critical_path, _ =
    Timeline.longest_chain ~lane
      ~chain:(fun p -> (p.ps_job, p.ps_shard))
      ~cost:dur sorted
  in
  let complete p =
    let job =
      if String.length p.ps_job > 8 then String.sub p.ps_job 0 8 else p.ps_job
    in
    {
      Timeline.tid = lane p;
      ts = p.ps_ts - t0;
      dur = dur p;
      name =
        (if p.ps_shard < 0 then Printf.sprintf "%s %s" p.ps_phase job
         else Printf.sprintf "%s %s#%d" p.ps_phase job p.ps_shard);
      args =
        [
          ("phase", Json.String p.ps_phase);
          ("job", Json.String p.ps_job);
          ("shard", Json.Int p.ps_shard);
          ("proc", Json.String p.ps_proc);
        ];
      cname = None;
    }
  in
  Timeline.chrome ~lanes:procs ~critical_path
    ~meta:[ ("processes", String.concat "," procs) ]
    (List.map complete sorted)
