(* Fold shard payloads back into an outcome through the exact in-process
   merge. Cells whose shard never arrived (past the finding cut, or a
   payload the check rejected) recompute locally — both are
   deterministic, so the outcome is independent of which side ran what. *)

(* [settle i c] for every cell [i] a payload decodes to [c]. *)
let each_cell decode ~units ~shard_size ~payloads settle =
  Array.iteri
    (fun shard ->
      Option.iter (fun p ->
          let lo, hi = Worker.shard_range ~units ~shard_size shard in
          Result.iter
            (Array.iteri (fun i c -> settle (lo + i) c))
            (decode ~lo ~hi p)))
    payloads

let sweep ?metrics ?on_progress plan ~shard_size ~payloads =
  let units = Svm.Explore.sweep_cells plan in
  let verdicts = Array.make units None in
  each_cell Worker.decode_sweep ~units ~shard_size ~payloads (fun i v ->
      verdicts.(i) <- v);
  let verdict_of i =
    match verdicts.(i) with
    | Some v -> v
    | None ->
        (* A violating cell, or one past the cut whose shard was never
           dealt: recompute locally — deterministic either way. The cell
           runs untraced; [sweep_merge] re-derives the one trace it
           needs, the first violation's, by a traced re-run. *)
        Svm.Explore.sweep_cell plan i
  in
  Svm.Explore.sweep_merge ?metrics ?on_progress plan ~verdict_of

let explore ?metrics ?on_progress plan ~shard_size ~payloads =
  let units = Svm.Explore.plan_tasks plan in
  let summaries = Array.make units None in
  each_cell Worker.decode_explore ~units ~shard_size ~payloads (fun i s ->
      summaries.(i) <- Some s);
  let outcome_of i =
    match summaries.(i) with
    | Some s -> (s, None)
    | None -> Svm.Explore.task_outcome plan i
  in
  Svm.Explore.merge_plan ?metrics ?on_progress plan ~outcome_of

type outcome =
  | Sweep_outcome of Svm.Explore.sweep_outcome
  | Explore_outcome of Svm.Univ.t Svm.Explore.result

let instance ?metrics ?on_progress inst ~shard_size ~payloads =
  match inst with
  | Worker.Sweep_instance p ->
      Sweep_outcome (sweep ?metrics ?on_progress p ~shard_size ~payloads)
  | Worker.Explore_instance p ->
      Explore_outcome (explore ?metrics ?on_progress p ~shard_size ~payloads)
