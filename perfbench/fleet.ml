(* A loopback fleet: one `asmsim serve --listen` with a fresh journal
   directory and [workers] `asmsim work --connect` processes, up and
   registered before the first job. *)

type t = { serve : int; workers : int list; addr : Unix.sockaddr }

let client_config =
  lazy
    {
      (Dist.Client.default_config
         ~fingerprint:(Experiments.Harness.registry_fingerprint ())
         ())
      with
      Dist.Client.backoff_base = 0.01;
    }

(* Every process started here and not reaped yet; an exit on any path
   kills and reaps them. *)
let children : int list ref = ref []

let spawn exe args ~out ~err =
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) out out err in
  children := pid :: !children;
  pid

(* Wait up to [grace] seconds for [pids] to exit; the survivors. *)
let reap pids ~grace =
  let deadline = Measure.now () +. grace in
  let rec go pending =
    let pending =
      List.filter
        (fun pid ->
          match Unix.waitpid [ WNOHANG ] pid with
          | 0, _ -> true
          | _ -> false
          | exception Unix.Unix_error _ -> false)
        pending
    in
    if pending = [] || Measure.now () > deadline then pending
    else (
      Unix.sleepf 0.005;
      go pending)
  in
  let left = go pids in
  children := List.filter (fun p -> not (List.mem p pids) || List.mem p left) !children;
  left

let signal s pid = try Unix.kill pid s with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter (signal Sys.sigkill) !children;
  ignore (reap !children ~grace:5.)

let () = at_exit kill_all

let rec await ~what ~timeout probe =
  match probe () with
  | Some v -> v
  | None ->
      if timeout <= 0. then failwith ("fleet: timed out waiting for " ^ what);
      Unix.sleepf 0.001;
      await ~what ~timeout:(timeout -. 0.001) probe

let scrape_port text =
  let marker = "listening on port " in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length text then None
    else if String.sub text i m = marker then
      Scanf.sscanf_opt (String.sub text (i + m) (String.length text - i - m))
        "%d" Fun.id
    else find (i + 1)
  in
  find 0

let stats_at addr = Dist.Client.stats_query (Lazy.force client_config) addr
let stats t = stats_at t.addr

let stat_int path doc =
  List.fold_left
    (fun acc key -> Option.bind acc (Svm.Json.member key))
    (Some doc) path
  |> Fun.flip Option.bind Svm.Json.to_int
  |> Option.value ~default:0

let counter doc name = stat_int [ "metrics"; "counters"; name ] doc

let start ~exe ~dir ~workers =
  Measure.mkdir_p dir;
  let err_file = Filename.concat dir "serve.err" in
  let err = Unix.openfile err_file [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let serve =
    spawn exe
      [
        "serve";
        "--listen";
        "127.0.0.1:0";
        "--journal-dir";
        Filename.concat dir "jobs";
      ]
      ~out:null ~err
  in
  Unix.close err;
  let port =
    await ~what:"serve to bind" ~timeout:10. (fun () ->
        scrape_port (In_channel.with_open_bin err_file In_channel.input_all))
  in
  let workers_pids =
    List.init workers (fun _ ->
        spawn exe
          [ "work"; "--connect"; Printf.sprintf "127.0.0.1:%d" port ]
          ~out:null ~err:null)
  in
  Unix.close null;
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  await ~what:"workers to register" ~timeout:10. (fun () ->
      match stats_at addr with
      | Ok doc when stat_int [ "health"; "workers" ] doc = workers -> Some ()
      | _ -> None);
  { serve; workers = workers_pids; addr }

let pids t = t.serve :: t.workers

(* SIGTERM drains serve, which shuts its workers down; whatever is
   still alive after a grace period is terminated, then killed. *)
let stop t =
  signal Sys.sigterm t.serve;
  let left = reap (pids t) ~grace:5. in
  List.iter (signal Sys.sigterm) left;
  let left = reap left ~grace:2. in
  List.iter (signal Sys.sigkill) left;
  ignore (reap left ~grace:5.)
