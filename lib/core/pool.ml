open Svm

type 'v state = Running of 'v Prog.t | Finished

type 'v t = { threads : 'v state array; mutable active : int }

let make progs =
  { threads = Array.map (fun p -> Running p) progs; active = Array.length progs }

let size t = Array.length t.threads
let active t = t.active

let is_active t tid =
  match t.threads.(tid) with Running _ -> true | Finished -> false

let step t ~tid =
  match t.threads.(tid) with
  | Finished -> Prog.return `Finished
  | Running (Prog.Done v) ->
      t.threads.(tid) <- Finished;
      t.active <- t.active - 1;
      Prog.return (`Done v)
  | Running (Prog.Step (op, k)) ->
      Prog.Step
        ( op,
          fun r ->
            t.threads.(tid) <- Running (k r);
            Prog.return `Stepped )
  | Running (Prog.Await (op, pred)) ->
      Prog.Step
        ( op,
          fun r ->
            (match pred r with
            | Some next -> t.threads.(tid) <- Running next
            | None -> ());
            Prog.return `Stepped )

let round_robin_next t ~after =
  let n = Array.length t.threads in
  if n = 0 then None
  else
    let rec go i remaining =
      if remaining = 0 then None
      else if is_active t i then Some i
      else go ((i + 1) mod n) (remaining - 1)
    in
    go ((after + 1) mod n) n
