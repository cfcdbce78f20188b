(* Clocks, order statistics and process probes. *)

(* Monotonic nanoseconds, as seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Process CPU seconds, every domain included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* [repeat n f]: median seconds of [n] calls. *)
let repeat n f = median (List.init n (fun _ -> fst (time f)))

(* Seconds per call of [f], timed over batches of [iters] calls; the
   median of [rounds] batches. *)
let per_call ?(rounds = 5) ~iters f =
  repeat rounds (fun () ->
      for i = 0 to iters - 1 do
        f i
      done)
  /. float_of_int iters

(* VmHWM (peak resident set) of a live process, in MiB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; rest ] ->
                 Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
