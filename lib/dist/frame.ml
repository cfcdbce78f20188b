type error =
  | Closed
  | Truncated of int
  | Oversized of int
  | Bad_json of string
  | Stalled of int

let pp_error ppf = function
  | Closed -> Format.fprintf ppf "connection closed"
  | Truncated n ->
      Format.fprintf ppf "connection closed mid-frame (%d byte(s) received)" n
  | Oversized n ->
      Format.fprintf ppf "frame payload of %d bytes exceeds the cap" n
  | Bad_json m -> Format.fprintf ppf "frame payload is not JSON: %s" m
  | Stalled n ->
      Format.fprintf ppf
        "frame incomplete past its deadline (%d byte(s) received)" n

let default_max_len = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let encode v =
  let payload = Svm.Json.to_string v in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  b

let rec write_all fd b off len =
  if len > 0 then begin
    let w =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + w) (len - w)
  end

let write fd v =
  let b = encode v in
  write_all fd b 0 (Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Blocking reads                                                       *)
(* ------------------------------------------------------------------ *)

let be32_at b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let parse payload =
  match Svm.Json.of_string payload with
  | Ok v -> Ok v
  | Error m -> Error (Bad_json m)

(* Block until [fd] is readable or the absolute [deadline] passes;
   [false] means the deadline won. *)
let wait_readable fd deadline =
  match deadline with
  | None -> true
  | Some dl ->
      let rec go () =
        let left = dl -. Unix.gettimeofday () in
        if left <= 0. then false
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> go ()
          | _ -> true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()

let read ?(max_len = default_max_len) ?timeout fd =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  (* Read exactly [len] bytes into [b], or report how many arrived
     before EOF or the deadline. *)
  let read_full b len =
    let rec go off =
      if off >= len then `Full
      else if not (wait_readable fd deadline) then `Stalled off
      else
        match Unix.read fd b off (len - off) with
        | 0 -> `Eof off
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0
  in
  let hdr = Bytes.create 4 in
  match read_full hdr 4 with
  | `Eof 0 -> Error Closed
  | `Eof k -> Error (Truncated k)
  | `Stalled k -> Error (Stalled k)
  | `Full -> (
      let len = be32_at hdr 0 in
      if len > max_len then Error (Oversized len)
      else
        let payload = Bytes.create len in
        match read_full payload len with
        | `Eof k -> Error (Truncated (4 + k))
        | `Stalled k -> Error (Stalled (4 + k))
        | `Full -> parse (Bytes.unsafe_to_string payload))

(* ------------------------------------------------------------------ *)
(* Incremental decoding                                                 *)
(* ------------------------------------------------------------------ *)

type decoder = {
  d_max : int;
  d_stall : float option;  (* seconds allowed to complete a frame *)
  mutable buf : Bytes.t;
  mutable start : int;  (* consumed prefix *)
  mutable len : int;  (* valid bytes at buf.[start .. start+len) *)
  mutable frame_since : float option;
      (* when the first byte of the currently-incomplete frame arrived;
         [None] whenever the buffer sits at a frame boundary *)
}

let decoder ?(max_len = default_max_len) ?stall_timeout () =
  {
    d_max = max_len;
    d_stall = stall_timeout;
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    frame_since = None;
  }

let pending d = d.len

let ensure d extra =
  let cap = Bytes.length d.buf in
  if d.start + d.len + extra > cap then begin
    (* compact first; grow only if the data itself outgrew the buffer *)
    if d.start > 0 then begin
      Bytes.blit d.buf d.start d.buf 0 d.len;
      d.start <- 0
    end;
    if d.len + extra > cap then begin
      let cap' =
        let rec fit c = if c >= d.len + extra then c else fit (2 * c) in
        fit (2 * cap)
      in
      let buf' = Bytes.create cap' in
      Bytes.blit d.buf 0 buf' 0 d.len;
      d.buf <- buf'
    end
  end

let feed ?now d src n =
  ensure d n;
  Bytes.blit src 0 d.buf (d.start + d.len) n;
  d.len <- d.len + n;
  if d.len > 0 && d.frame_since = None then d.frame_since <- now

(* An incomplete frame has overstayed its deadline when the decoder was
   given a stall timeout, the caller supplies the clock, and the first
   byte of the pending frame is older than the allowance. Whole frames
   drained promptly never trip this — the clock restarts at every frame
   boundary. *)
let stalled d ~now =
  match (d.d_stall, d.frame_since, now) with
  | Some allow, Some since, Some now -> now -. since > allow
  | _ -> false

let next ?now d =
  if d.len < 4 then if stalled d ~now then Error (Stalled d.len) else Ok None
  else
    let len = be32_at d.buf d.start in
    if len > d.d_max then Error (Oversized len)
    else if d.len < 4 + len then
      if stalled d ~now then Error (Stalled d.len) else Ok None
    else begin
      let payload = Bytes.sub_string d.buf (d.start + 4) len in
      d.start <- d.start + 4 + len;
      d.len <- d.len - (4 + len);
      if d.len = 0 then begin
        d.start <- 0;
        d.frame_since <- None
      end
      else d.frame_since <- now;
      Result.map Option.some (parse payload)
    end
