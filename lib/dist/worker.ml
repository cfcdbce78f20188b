type instance =
  | Sweep_instance of Svm.Univ.t Svm.Explore.sweep_plan
  | Explore_instance of Svm.Univ.t Svm.Explore.plan

(* Tick (progress heartbeat, control poll) this often. *)
let heartbeat_every = 32

let cells_of_instance = function
  | Sweep_instance p -> Svm.Explore.sweep_cells p
  | Explore_instance p -> Svm.Explore.plan_tasks p

(* Compute one shard's payload, transport-free: [tick completed] fires
   every {!heartbeat_every} cells so the caller can emit progress and
   poll control frames, whatever its wire is. Sweep cells run untraced
   and ship one verdict tag each; the merging side re-derives the trace
   of the one violation it shrinks. *)
let compute_shard instance ~lo ~hi ~tick =
  let tick i =
    if (i - lo + 1) mod heartbeat_every = 0 then tick (i - lo + 1)
  in
  match instance with
  | Sweep_instance p ->
      let b = Buffer.create (hi - lo) in
      for i = lo to hi - 1 do
        Buffer.add_char b (Proto.tag_of_verdict (Svm.Explore.sweep_cell p i));
        tick i
      done;
      Svm.Json.String (Buffer.contents b)
  | Explore_instance p ->
      let out = ref [] in
      for i = lo to hi - 1 do
        let summary, _cex = Svm.Explore.task_outcome p i in
        out := Proto.summary_to_json summary :: !out;
        tick i
      done;
      Svm.Json.List (List.rev !out)
