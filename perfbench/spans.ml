(* In-memory spans around the benchmark's calls into the layers. A span
   has a name, a start, an end, its parent span and the job it belongs
   to; spans stay in memory and are written once, at exit, as a Chrome
   trace-event file (chrome://tracing, Perfetto). *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** 0 for a root span *)
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable job : int;
  mutable spans : span list;  (** newest first *)
}

let create () = { enabled = true; next_id = 1; stack = []; job = 0; spans = [] }

let off = { enabled = false; next_id = 1; stack = []; job = 0; spans = [] }

let set_job t job = if t.enabled then t.job <- job

let call t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start = Measure.now () in
    let close () =
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; name; job = t.job; parent; start; stop = Measure.now () }
        :: t.spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let count t = List.length t.spans

(* Self time per span name: a span's duration minus the part its
   direct children cover (calls are sequential, so children never
   overlap). Sorted by descending self time. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    t.spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let n, sum =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt self s.name)
      in
      Hashtbl.replace self s.name (n + 1, sum +. (s.stop -. s.start -. covered)))
    t.spans;
  Hashtbl.fold (fun name (n, sum) acc -> (name, n, sum) :: acc) self []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let write t ~file ~meta =
  let open Svm.Json in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans
  in
  let us x = Float ((x -. origin) *. 1e6) in
  let event s =
    Obj
      [
        ("name", String s.name);
        ("ph", String "X");
        ("ts", us s.start);
        ("dur", Float ((s.stop -. s.start) *. 1e6));
        ("pid", Int 1);
        ("tid", Int 1);
        ( "args",
          Obj [ ("id", Int s.id); ("parent", Int s.parent); ("job", Int s.job) ]
        );
      ]
  in
  let doc =
    Obj
      [
        ("displayTimeUnit", String "ms");
        ("otherData", Obj meta);
        ("traceEvents", List (List.rev_map event t.spans));
      ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string doc);
      output_char oc '\n')
