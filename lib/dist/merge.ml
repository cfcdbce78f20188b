module Json = Svm.Json

(* Fold shard payloads back into a sweep outcome through the exact
   in-process merge. Cells whose shard never arrived (past the finding
   cut, or a payload the check rejected) recompute locally — both are
   deterministic, so the outcome is independent of which side ran what. *)
let sweep ?metrics ?on_progress plan ~shard_size ~payloads =
  let units = Svm.Explore.sweep_cells plan in
  let tags = Array.make units ' ' in
  Array.iteri
    (fun shard p ->
      match p with
      | Some (Json.String s) ->
          let lo = shard * shard_size in
          String.iteri (fun i c -> tags.(lo + i) <- c) s
      | _ -> ())
    payloads;
  let verdict_of i =
    match tags.(i) with
    | 'C' -> Svm.Explore.Clean
    | 'D' -> Svm.Explore.Deadlocked
    | _ ->
        (* 'V', or a cell past the cut whose shard was never dealt:
           recompute locally — deterministic either way. The cell runs
           untraced; [sweep_merge] re-derives the one trace it needs,
           the first violation's, by a traced re-run. *)
        Svm.Explore.sweep_cell plan i
  in
  Svm.Explore.sweep_merge ?metrics ?on_progress plan ~verdict_of

let explore ?metrics ?on_progress plan ~shard_size ~payloads =
  let units = Svm.Explore.plan_tasks plan in
  let summaries = Array.make units None in
  Array.iteri
    (fun shard p ->
      match p with
      | Some (Json.List l) ->
          let lo = shard * shard_size in
          List.iteri
            (fun i v ->
              match Proto.summary_of_json v with
              | Ok s -> summaries.(lo + i) <- Some s
              | Error _ -> ())
            l
      | _ -> ())
    payloads;
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
