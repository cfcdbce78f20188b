(* The naive reference explorer: the original copy-per-branch DFS that
   the journal engine and the plan engine were both built to replace.
   No undo journal, no visited table, no sleep sets, no parallelism —
   every branch deep-copies the environment and the state array, so it
   is slow but obviously enumerates every interleaving (and, within the
   crash budget, every crash placement) up to [max_steps], stopping at
   the first run that fails [property]. It has no run budget. The tests
   hold both production engines to it with dedup off: same runs, same
   verdict, same counterexample schedule. It uses only the public
   [Svm] API. *)

open Svm

type 'a pstate = Running of 'a Prog.t | Done of 'a | Crashed

type choice = Step of int | Crash of int

(* The production engines' schedule text, byte for byte. *)
let pp_choice = function
  | Step p -> string_of_int p
  | Crash p -> Printf.sprintf "X%d" p

let schedule_string rev_choices =
  String.concat "." (List.rev_map pp_choice rev_choices)

exception Stop

let exhaustive ?(max_crashes = 0) ~max_steps ~make ~property () =
  let env0, progs = make () in
  let explored = ref 0 in
  let counterexample = ref None in
  let finish states crashed truncated rev_choices =
    let outcomes =
      Array.map
        (function
          | Running _ -> Exec.Blocked
          | Done v -> Exec.Decided v
          | Crashed -> Exec.Crashed)
        states
    in
    let run =
      {
        Explore.outcomes;
        crashed = List.rev crashed;
        truncated;
        schedule = schedule_string rev_choices;
      }
    in
    incr explored;
    match property run with
    | Ok () -> ()
    | Error msg ->
        counterexample := Some (run, msg);
        raise Stop
  in
  let rec dfs env states depth crashes crashed rev_choices =
    let live =
      Array.to_list states
      |> List.mapi (fun i s -> (i, s))
      |> List.filter_map (fun (i, s) ->
             match s with Running _ -> Some i | Done _ | Crashed -> None)
    in
    if live = [] then finish states crashed false rev_choices
    else if depth >= max_steps then finish states crashed true rev_choices
    else
      List.iter
        (fun pid ->
          (match states.(pid) with
          | Running prog ->
              let env' = Env.copy env in
              let states' = Array.copy states in
              (match prog with
              | Prog.Done v -> states'.(pid) <- Done v
              | Prog.Step (op, k) ->
                  let r = Env.apply env' ~pid op in
                  states'.(pid) <- Running (k r)
              | Prog.Await (op, pred) -> (
                  let r = Env.apply env' ~pid op in
                  match pred r with
                  | Some next -> states'.(pid) <- Running next
                  | None -> ()));
              dfs env' states' (depth + 1) crashes crashed
                (Step pid :: rev_choices)
          | Done _ | Crashed -> assert false);
          if crashes < max_crashes then begin
            let states' = Array.copy states in
            states'.(pid) <- Crashed;
            dfs (Env.copy env) states' (depth + 1) (crashes + 1)
              (pid :: crashed)
              (Crash pid :: rev_choices)
          end)
        live
  in
  (try dfs env0 (Array.map (fun p -> Running p) progs) 0 0 [] []
   with Stop -> ());
  {
    Explore.explored = !explored;
    counterexample = !counterexample;
    exhausted_budget = false;
    pruned_states = 0;
    pruned_commutes = 0;
    pruned_source = 0;
  }
