module Json = Svm.Json

type instance =
  | Sweep_instance of Svm.Univ.t Svm.Explore.sweep_plan
  | Explore_instance of Svm.Univ.t Svm.Explore.plan

let cells_of_instance = function
  | Sweep_instance p -> Svm.Explore.sweep_cells p
  | Explore_instance p -> Svm.Explore.plan_tasks p

(* {2 Shards} *)

let shard_count ~units ~shard_size =
  if units = 0 then 0 else (units + shard_size - 1) / shard_size

let shard_range ~units ~shard_size i =
  (i * shard_size, min units ((i + 1) * shard_size))

(* {2 Payloads}

   A sweep shard ships one verdict tag per cell: 'C' clean, 'D'
   deadlocked, 'V' violating. The violation itself stays behind; the
   merging side re-runs that one cell. An explore shard ships one
   seven-int summary per task. *)

let tag_of_verdict = function
  | Svm.Explore.Clean -> 'C'
  | Svm.Explore.Deadlocked -> 'D'
  | Svm.Explore.Violating _ -> 'V'

let bool_int b = Json.Int (if b then 1 else 0)

let summary_to_json (s : Svm.Explore.task_summary) =
  Json.List
    [
      bool_int s.Svm.Explore.ts_leaf;
      Json.Int s.Svm.Explore.ts_runs;
      Json.Int s.Svm.Explore.ts_truncated;
      bool_int s.Svm.Explore.ts_cex;
      Json.Int s.Svm.Explore.ts_pruned_states;
      Json.Int s.Svm.Explore.ts_pruned_commutes;
      bool_int s.Svm.Explore.ts_exhausted;
    ]

let summary_of_json v =
  match Json.to_list v with
  | Some
      [
        Json.Int leaf;
        Json.Int runs;
        Json.Int truncated;
        Json.Int cex;
        Json.Int pruned_states;
        Json.Int pruned_commutes;
        Json.Int exhausted;
      ]
    when runs >= 0 && truncated >= 0 && pruned_states >= 0
         && pruned_commutes >= 0 ->
      Ok
        {
          Svm.Explore.ts_leaf = leaf <> 0;
          ts_runs = runs;
          ts_truncated = truncated;
          ts_cex = cex <> 0;
          ts_pruned_states = pruned_states;
          ts_pruned_commutes = pruned_commutes;
          ts_exhausted = exhausted <> 0;
        }
  | _ -> Error "task summary must be a list of seven ints"

(* Total decoders over wire payloads for cells [lo, hi). A sweep cell
   decodes to its verdict, or to [None] for a violating cell, which the
   merge re-runs to derive its trace. *)
let decode_sweep ~lo ~hi = function
  | Json.String s when String.length s <> hi - lo ->
      Error
        (Printf.sprintf "expected %d verdict tags, got %d" (hi - lo)
           (String.length s))
  | Json.String s ->
      let cells = Array.make (hi - lo) None in
      let rec go i =
        if i = hi - lo then Ok cells
        else
          match s.[i] with
          | 'C' ->
              cells.(i) <- Some Svm.Explore.Clean;
              go (i + 1)
          | 'D' ->
              cells.(i) <- Some Svm.Explore.Deadlocked;
              go (i + 1)
          | 'V' -> go (i + 1)
          | c -> Error (Printf.sprintf "bad verdict tag %C" c)
      in
      go 0
  | _ -> Error "sweep shard payload must be a tag string"

let decode_explore ~lo ~hi = function
  | Json.List l when List.length l <> hi - lo ->
      Error
        (Printf.sprintf "expected %d task summaries, got %d" (hi - lo)
           (List.length l))
  | Json.List l ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | v :: rest -> (
            match summary_of_json v with
            | Ok s -> go (s :: acc) rest
            | Error m -> Error m)
      in
      go [] l
  | _ -> Error "explore shard payload must be a summary list"

(* The cut is the first violating sweep cell, or the first explore task
   that found a counterexample or hit its budget. *)
let check_payload instance ~lo ~hi payload =
  let first found cells =
    Option.map (( + ) lo) (Array.find_index found cells)
  in
  match instance with
  | Sweep_instance _ ->
      Result.map (first Option.is_none) (decode_sweep ~lo ~hi payload)
  | Explore_instance _ ->
      Result.map
        (first (fun s -> s.Svm.Explore.ts_cex || s.Svm.Explore.ts_exhausted))
        (decode_explore ~lo ~hi payload)

(* {2 Computing} *)

(* Call [tick] this often, in cells, so the caller can answer control
   frames mid-shard. *)
let poll_every = 32

(* Sweep cells run untraced; the merging side re-derives the trace of
   the one violation it shrinks. *)
let compute_shard instance ~lo ~hi ~tick =
  let tick i = if (i - lo + 1) mod poll_every = 0 then tick () in
  match instance with
  | Sweep_instance p ->
      let b = Buffer.create (hi - lo) in
      for i = lo to hi - 1 do
        Buffer.add_char b (tag_of_verdict (Svm.Explore.sweep_cell p i));
        tick i
      done;
      Json.String (Buffer.contents b)
  | Explore_instance p ->
      let out = ref [] in
      for i = lo to hi - 1 do
        let summary, _cex = Svm.Explore.task_outcome p i in
        out := summary_to_json summary :: !out;
        tick i
      done;
      Json.List (List.rev !out)
