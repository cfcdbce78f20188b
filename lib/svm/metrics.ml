(* Telemetry registry. Determinism rule: every value stored here derives
   from step counts, op counts and run outcomes — never from wall-clock
   time — unless the registry was created with [~wall_clock:true]. Replay
   comparisons ("two replays of one artifact snapshot identically") rely
   on this, so the wall section is opt-in and clearly separated. *)

type counter = int ref

type gauge = int ref

(* Log-bucketed histogram: bucket 0 holds values <= 0, bucket i >= 1
   holds [2^(i-1), 2^i). An OCaml int never exceeds 2^62 - 1, so 63
   buckets cover the whole range. *)
let nbuckets = 63

type histogram = {
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  buckets : int array;
}

type t = {
  wall_clock : bool;
  created_at : float; (* Sys.time at creation; read only when wall_clock *)
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create ?(wall_clock = false) () =
  {
    wall_clock;
    created_at = (if wall_clock then Sys.time () else 0.);
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let wall_clock t = t.wall_clock

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add t.counters name c;
      c

let incr ?(by = 1) c = c := !c + by

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> !c | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = ref 0 in
      Hashtbl.add t.gauges name g;
      g

let set g v = g := v

let set_max g v = if v > !g then g := v

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> !g | None -> 0

(* Optional-registry conveniences, for producers (the network service)
   whose instrumentation is a [?metrics] that is usually [None]. *)

let bump ?(by = 1) t name =
  match t with None -> () | Some t -> incr ~by (counter t name)

let record t name v =
  match t with None -> () | Some t -> set (gauge t name) v

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec go v i = if v = 0 then i else go (v lsr 1) (i + 1) in
    let b = go v 0 in
    if b >= nbuckets then nbuckets - 1 else b
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          count = 0;
          sum = 0;
          min_v = max_int;
          max_v = min_int;
          buckets = Array.make nbuckets 0;
        }
      in
      Hashtbl.add t.histograms name h;
      h

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let sample t name v =
  match t with None -> () | Some t -> observe (histogram t name) v

let histogram_count t name =
  match Hashtbl.find_opt t.histograms name with Some h -> h.count | None -> 0

let histogram_sum t name =
  match Hashtbl.find_opt t.histograms name with Some h -> h.sum | None -> 0

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let sorted_assoc tbl value =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, v) -> (k, value v))

let counters t = sorted_assoc t.counters (fun c -> !c)
let gauges t = sorted_assoc t.gauges (fun g -> !g)

let histograms t =
  sorted_assoc t.histograms (fun h ->
      let buckets = ref [] in
      for i = nbuckets - 1 downto 0 do
        if h.buckets.(i) > 0 then buckets := (i, h.buckets.(i)) :: !buckets
      done;
      ( (h.count, h.sum),
        (if h.count = 0 then (0, 0) else (h.min_v, h.max_v)),
        !buckets ))

let hist_json ((count, sum), (min_v, max_v), buckets) =
  Json.Obj
    [
      ("count", Json.Int count);
      ("sum", Json.Int sum);
      ("min", Json.Int min_v);
      ("max", Json.Int max_v);
      ( "buckets",
        Json.Obj
          (List.map
             (fun (i, n) -> (string_of_int (bucket_lo i), Json.Int n))
             buckets) );
    ]

let snapshot t =
  let base =
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (gauges t)));
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) (histograms t)) );
    ]
  in
  let wall =
    if t.wall_clock then
      [
        ( "wall",
          Json.Obj
            [
              ( "elapsed_ns",
                Json.Int
                  (int_of_float ((Sys.time () -. t.created_at) *. 1e9)) );
            ] );
      ]
    else []
  in
  Json.Obj (base @ wall)

let snapshot_string ?pretty t = Json.to_string ?pretty (snapshot t)

(* Decode a snapshot back into a registry, so a server can [merge]
   registries pushed over the wire by its workers. Inverse of
   [snapshot] up to the "wall" section (ignored: a reconstructed
   registry is wall-clock-free). Total on untrusted input. *)
let of_snapshot json =
  let ( let* ) = Result.bind in
  let obj_members name =
    match Json.member name json with
    | None -> Ok []
    | Some (Json.Obj kvs) -> Ok kvs
    | Some _ -> Error (Printf.sprintf "snapshot: %S is not an object" name)
  in
  let int_of name = function
    | Json.Int n -> Ok n
    | _ -> Error (Printf.sprintf "snapshot: %S is not an int" name)
  in
  let t = create () in
  let* cs = obj_members "counters" in
  let* () =
    List.fold_left
      (fun acc (k, v) ->
        let* () = acc in
        let* n = int_of k v in
        incr ~by:n (counter t k);
        Ok ())
      (Ok ()) cs
  in
  let* gs = obj_members "gauges" in
  let* () =
    List.fold_left
      (fun acc (k, v) ->
        let* () = acc in
        let* n = int_of k v in
        set (gauge t k) n;
        Ok ())
      (Ok ()) gs
  in
  let* hs = obj_members "histograms" in
  let* () =
    List.fold_left
      (fun acc (k, v) ->
        let* () = acc in
        let field name =
          match Json.member name v with
          | Some (Json.Int n) -> Ok n
          | _ ->
              Error
                (Printf.sprintf "snapshot: histogram %S lacks int %S" k name)
        in
        let* count = field "count" in
        let* sum = field "sum" in
        let* min_v = field "min" in
        let* max_v = field "max" in
        let* buckets =
          match Json.member "buckets" v with
          | Some (Json.Obj kvs) -> Ok kvs
          | _ ->
              Error (Printf.sprintf "snapshot: histogram %S lacks buckets" k)
        in
        let h = histogram t k in
        h.count <- count;
        h.sum <- sum;
        if count > 0 then begin
          h.min_v <- min_v;
          h.max_v <- max_v
        end;
        List.fold_left
          (fun acc (lo, n) ->
            let* () = acc in
            let* n = int_of lo n in
            match int_of_string_opt lo with
            | None ->
                Error (Printf.sprintf "snapshot: bad bucket key %S" lo)
            | Some lo ->
                let i = bucket_of lo in
                h.buckets.(i) <- h.buckets.(i) + n;
                Ok ())
          (Ok ()) buckets)
      (Ok ()) hs
  in
  Ok t

(* Fold a worker registry into an accumulator: counters and histogram
   mass add, gauges keep the max (every gauge producer in this codebase
   is high-watermark shaped). Merge order therefore cannot change the
   result, which is what makes parallel sweeps snapshot-identical to
   sequential ones. *)
let merge ~into src =
  Hashtbl.iter (fun name c -> incr ~by:!c (counter into name)) src.counters;
  Hashtbl.iter (fun name g -> set_max (gauge into name) !g) src.gauges;
  Hashtbl.iter
    (fun name h ->
      let dst = histogram into name in
      dst.count <- dst.count + h.count;
      dst.sum <- dst.sum + h.sum;
      if h.count > 0 then begin
        if h.min_v < dst.min_v then dst.min_v <- h.min_v;
        if h.max_v > dst.max_v then dst.max_v <- h.max_v
      end;
      Array.iteri
        (fun i n -> if n > 0 then dst.buckets.(i) <- dst.buckets.(i) + n)
        h.buckets)
    src.histograms

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms
