type config = {
  workers : int;
  shard_size : int option;
  shard_timeout : float;
  exe : string;
  journal_dir : string option;
  resume : string option;
  chaos_kill_shard : (int * int) option;
  log : Svm.Log.t;
}

let default_config ?(workers = 2) ?(exe = Sys.executable_name) () =
  {
    workers;
    shard_size = None;
    shard_timeout = 120.;
    exe;
    journal_dir = None;
    resume = None;
    chaos_kill_shard = None;
    log = Svm.Log.null;
  }

type stats = Queue_core.fleet_stats = {
  job_id : string;
  shards : int;
  shard_size : int;
  resumed : int;
  executed : int;
  spawned : int;
  reassigned : int;
}

type 'a outcome = Complete of 'a | Suspended of string

(* The --dist threshold since the fork coordinator: a shard is hostile
   once it has lost 3 workers in a row. A serve daemon allows more (its
   remote workers ride flaky networks); a private fleet's workers share
   this host, so 3 straight losses on one shard mean the shard itself. *)
let max_retries = 2

let run ?metrics ?on_progress ~fingerprint cfg ~job ~instance =
  if cfg.workers < 1 then Error "need at least one worker"
  else
    let units = Worker.cells_of_instance instance in
    let qcfg =
      {
        (Queue_core.default_config ~fingerprint ()) with
        shard_size =
          Some
            (match cfg.shard_size with
            | Some s -> max 1 s
            | None -> Policy.shard_size ~units ~workers:cfg.workers);
        shard_timeout = cfg.shard_timeout;
        max_retries;
        journal_dir = Option.value cfg.journal_dir ~default:Journal.default_dir;
        log = cfg.log;
      }
    in
    match
      Queue.run_fleet qcfg ~workers:cfg.workers ~exe:cfg.exe
        ?chaos_kill_shard:cfg.chaos_kill_shard ?resume:cfg.resume ~job instance
    with
    | Error m -> Error m
    | Ok (`Suspended id, st) -> Ok (Client.Suspended id, st)
    | Ok (`Complete payloads, st) ->
        Ok
          ( Client.Finished
              (Merge.instance ?metrics ?on_progress instance
                 ~shard_size:st.shard_size ~payloads),
            st )
