type event = { step : int; pid : int; info : Op.info option }

type decision =
  | Sched of int
  | Crash of int
  | Omit of int
  | Restart of int
  | Byz of int

type t = {
  limit : int;
  mutable rev_events : event list;
  mutable count : int;
  mutable dropped : int;
  mutable rev_decisions : decision list;
  mutable decision_count : int;
}

let create ?(limit = 100_000) () =
  {
    limit;
    rev_events = [];
    count = 0;
    dropped = 0;
    rev_decisions = [];
    decision_count = 0;
  }

let add t e =
  if t.count >= t.limit then begin
    (* Drop the oldest half in one amortized pass. *)
    let keep = t.limit / 2 in
    let kept = ref [] in
    let n = ref 0 in
    List.iter
      (fun e ->
        if !n < keep then begin
          kept := e :: !kept;
          incr n
        end)
      t.rev_events;
    t.dropped <- t.dropped + (t.count - !n);
    t.rev_events <- List.rev !kept;
    t.count <- !n
  end;
  t.rev_events <- e :: t.rev_events;
  t.count <- t.count + 1

let events t = List.rev t.rev_events
let dropped t = t.dropped
let length t = t.count

let pp_event ppf { step; pid; info } =
  match info with
  | Some i -> Format.fprintf ppf "%6d  q%-3d %a" step pid Op.pp_info i
  | None -> Format.fprintf ppf "%6d  q%-3d (yield)" step pid

let pp ppf t =
  (* Truncation must be visible: a trace that silently renders only its
     tail reads as a complete (and wrong) timeline. *)
  if t.dropped > 0 then
    Format.fprintf ppf
      "[trace truncated: %d earlier events dropped, %d kept]@." t.dropped
      t.count;
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)

(* ------------------------------------------------------------------ *)
(* Decisions and replay artifacts                                       *)
(* ------------------------------------------------------------------ *)

let record_decision t d =
  t.rev_decisions <- d :: t.rev_decisions;
  t.decision_count <- t.decision_count + 1

let decisions t = List.rev t.rev_decisions
let decision_count t = t.decision_count

let decision_token = function
  | Sched p -> string_of_int p
  | Crash p -> "X" ^ string_of_int p
  | Omit p -> "H" ^ string_of_int p
  | Restart p -> "R" ^ string_of_int p
  | Byz p -> "B" ^ string_of_int p

let decision_of_token s =
  let num s =
    match int_of_string_opt s with
    | Some p when p >= 0 -> Ok p
    | Some _ | None -> Error (Printf.sprintf "bad pid %S" s)
  in
  let tagged mk = Result.map mk (num (String.sub s 1 (String.length s - 1))) in
  if String.length s > 1 then
    match s.[0] with
    | 'X' -> tagged (fun p -> Crash p)
    | 'H' -> tagged (fun p -> Omit p)
    | 'R' -> tagged (fun p -> Restart p)
    | 'B' -> tagged (fun p -> Byz p)
    | _ -> Result.map (fun p -> Sched p) (num s)
  else Result.map (fun p -> Sched p) (num s)

(* Artifact format (line-oriented, trailing newline):

     asmsim-replay 2
     meta <key> <value>          (zero or more)
     schedule <tok> <tok> ...    (zero or more lines, in order)
     end <count>

   Tokens are [pid] for a scheduling decision and [Xpid] / [Hpid] /
   [Rpid] / [Bpid] for a crash / omission hang / restart / Byzantine
   step of that pid. Schedule lines are wrapped for readability;
   concatenation order is the decision order. The [end] trailer carries
   the decision count so a truncated artifact is detected rather than
   silently replayed short. Version-1 artifacts (crash-stop only, no
   trailer) are still accepted. *)

let magic = "asmsim-replay 2"
let magic_v1 = "asmsim-replay 1"

let meta_key_ok k =
  k <> ""
  && String.for_all
       (fun c -> not (c = ' ' || c = '\t' || c = '\n' || c = '=' ))
       k

let to_replay ?(meta = []) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      if not (meta_key_ok k) then
        invalid_arg (Printf.sprintf "Trace.to_replay: bad meta key %S" k);
      if String.contains v '\n' then
        invalid_arg (Printf.sprintf "Trace.to_replay: newline in meta %S" k);
      Buffer.add_string buf (Printf.sprintf "meta %s %s\n" k v))
    meta;
  let on_line = ref 0 in
  List.iter
    (fun d ->
      if !on_line = 0 then Buffer.add_string buf "schedule"
      ;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (decision_token d);
      incr on_line;
      if !on_line >= 25 then begin
        Buffer.add_char buf '\n';
        on_line := 0
      end)
    (decisions t);
  if !on_line > 0 then Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "end %d\n" (decision_count t));
  Buffer.contents buf

type parse_error = { line : int; message : string }

let pp_parse_error ppf e =
  Format.fprintf ppf "line %d: %s" e.line e.message

let parse_replay s =
  (* Keep 1-based line numbers through the blank-line filter so errors
     point into the artifact as the user sees it. *)
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  let last_line = List.fold_left (fun _ (n, _) -> n) 1 lines in
  match lines with
  | [] -> Error { line = 1; message = "empty replay artifact" }
  | (ln, first) :: rest ->
      let header = String.trim first in
      if header <> magic && header <> magic_v1 then
        Error
          {
            line = ln;
            message =
              Printf.sprintf "not a replay artifact (expected %S)" magic;
          }
      else
        let v2 = header = magic in
        let rec go meta rev_ds count = function
          | [] ->
              if v2 then
                Error
                  {
                    line = last_line;
                    message =
                      "truncated artifact: missing \"end <count>\" trailer";
                  }
              else Ok (List.rev meta, List.rev rev_ds)
          | (ln, line) :: rest -> (
              match String.split_on_char ' ' (String.trim line) with
              | "meta" :: k :: vs ->
                  go ((k, String.concat " " vs) :: meta) rev_ds count rest
              | "schedule" :: toks ->
                  let rec add rev_ds count = function
                    | [] -> Ok (rev_ds, count)
                    | "" :: toks -> add rev_ds count toks
                    | tok :: toks -> (
                        match decision_of_token tok with
                        | Ok d -> add (d :: rev_ds) (count + 1) toks
                        | Error e -> Error { line = ln; message = e })
                  in
                  (match add rev_ds count toks with
                  | Ok (rev_ds, count) -> go meta rev_ds count rest
                  | Error e -> Error e)
              | [ "end"; n ] -> (
                  match int_of_string_opt n with
                  | None ->
                      Error
                        {
                          line = ln;
                          message = Printf.sprintf "bad end count %S" n;
                        }
                  | Some n when n <> count ->
                      Error
                        {
                          line = ln;
                          message =
                            Printf.sprintf
                              "truncated artifact: end says %d decisions, \
                               found %d"
                              n count;
                        }
                  | Some _ -> (
                      match rest with
                      | [] -> Ok (List.rev meta, List.rev rev_ds)
                      | (ln, line) :: _ ->
                          Error
                            {
                              line = ln;
                              message =
                                Printf.sprintf
                                  "trailing line after end trailer: %S" line;
                            }))
              | _ ->
                  Error
                    {
                      line = ln;
                      message = Printf.sprintf "unrecognized line %S" line;
                    })
        in
        go [] [] 0 rest
