(* Leveled structured logging. Determinism rule, as for Metrics: records
   carry monotone sequence numbers, never wall-clock time, so identical
   runs produce identical logs and smoke-test byte-diffs cannot race
   against timestamps. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type record = { seq : int; level : level; sub : string; msg : string }

(* Info renders exactly as the historical ad-hoc stderr lines did
   ("[net] listening on port 4321"): the Makefile smoke recipes sed/grep
   that format, so it is part of the observable interface. *)
let render_human r =
  match r.level with
  | Info -> Printf.sprintf "[%s] %s" r.sub r.msg
  | l -> Printf.sprintf "[%s] %s: %s" r.sub (level_name l) r.msg

let render_json r =
  Json.to_string
    (Json.Obj
       [
         ("seq", Json.Int r.seq);
         ("level", Json.String (level_name r.level));
         ("sub", Json.String r.sub);
         ("msg", Json.String r.msg);
       ])

type sink = Null | Sink of (record -> unit)

let human_sink write = Sink (fun r -> write (render_human r))
let json_sink write = Sink (fun r -> write (render_json r))

let emit sink r = match sink with Null -> () | Sink f -> f r

(* ------------------------------------------------------------------ *)
(* Loggers                                                             *)
(* ------------------------------------------------------------------ *)

type t = { lvl : level; tag : string; sink : sink; next : int ref }

let make ?(level = Info) sink = { lvl = level; tag = ""; sink; next = ref 0 }
let null = { lvl = Error; tag = ""; sink = Null; next = ref 0 }

let sub t name =
  { t with tag = (if t.tag = "" then name else t.tag ^ "." ^ name) }

let level t = t.lvl

let enabled t l =
  (match t.sink with Null -> false | Sink _ -> true)
  && severity l >= severity t.lvl

let log t l msg =
  if enabled t l then begin
    let seq = !(t.next) in
    t.next := seq + 1;
    emit t.sink { seq; level = l; sub = t.tag; msg }
  end

let logf t l fmt = Printf.ksprintf (fun s -> log t l s) fmt
let debugf t fmt = logf t Debug fmt
let infof t fmt = logf t Info fmt
let warnf t fmt = logf t Warn fmt
let errorf t fmt = logf t Error fmt
