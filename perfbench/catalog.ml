(* The benchmark's vocabulary: workload names, metric names, units,
   directions and regression bounds. [BENCHMARK.json] at the repository
   root must say exactly this; [main.exe manifest] prints it and the
   runtest rule diffs the two. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let workloads =
  [
    ( "explore",
      "engine C exhaustive search of safe agreement (Fig. 1): Visited, \
       Intern, Env journal and Par work stealing do the work; Exec, Store \
       and Dist idle" );
    ( "explore-cex",
      "seeded-bug x_safe_agreement (Fig. 6) ends in a counterexample: the \
       only path where engine C aborts and the plan engine re-runs" );
    ( "sweep",
      "DSL twin of safe agreement compiled per job, then a crash-fault \
       sweep whose blocked survivors spin to the step budget: Exec, \
       monitors, trace" );
    ( "soak",
      "soak of the no-cancel bug over a fixed pool of 8 seeds, alternating \
       a fresh corpus (appends, cements) with a re-soak (all dedup hits): \
       Store writes vs reads" );
    ( "net",
      "salted x_compete (Fig. 5) sweeps through asmsim serve and two work \
       --connect processes over loopback TCP: Queue dispatch, Frame and \
       Journal dominate" );
    ( "dist",
      "the same salted sweeps through the fork coordinator with two \
       workers and the journal on: the socketpair transport, paired with \
       net" );
  ]

let workload_names = List.map fst workloads

(* End-to-end metrics, printed by every untraced run. The time bounds
   are wide: on the shared 2-vCPU host the baseline comes from,
   CPU-bound job times drift by 15-50 % between sets of runs a few
   minutes apart (so does a fixed interpreter loop), and a tighter bound
   would flag the host, not the code. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "runs_per_s" "1/s" Higher 0.25;
    e2e "job_p50_s" "s" Lower 0.25;
    e2e "job_p75_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MiB" Lower 0.2;
  ]

(* Per-layer metrics, printed by every traced run. Counts are pinned by
   the inputs; times come from probes that time one layer's public
   functions from outside. *)
let per_layer =
  [
    layer "explore.runs" "count" Lower;
    layer "explore.states" "count" Lower;
    layer "explore.visited_hit_ratio" "ratio" Higher;
    layer "explore.pruned_states" "count" Higher;
    layer "explore.pruned_commutes" "count" Higher;
    layer "explore.pruned_source" "count" Higher;
    layer "explore.steals" "count" Lower;
    layer "explore.splits" "count" Lower;
    layer "explore.cpu_util" "ratio" Higher;
    layer "explore.par_speedup" "ratio" Higher;
    layer "explore.fallback_waste_s" "s" Lower;
    layer "visited.insert_ns" "ns" Lower;
    layer "visited.hit_ns" "ns" Lower;
    layer "visited.insert_2dom_ns" "ns" Lower;
    layer "intern.id_ns" "ns" Lower;
    layer "visited.bloom_fp_ratio" "ratio" Lower;
    layer "env.checkpoint_rollback_ns" "ns" Lower;
    layer "env.state_hash_ns" "ns" Lower;
    layer "env.canonical_ns" "ns" Lower;
    layer "exec.step_ns" "ns" Lower;
    layer "exec.steps_per_cell" "count" Lower;
    layer "exec.yield_share" "ratio" Lower;
    layer "exec.monitor_trace_tax" "ratio" Lower;
    layer "exec.metrics_tax" "ratio" Lower;
    layer "sweep.cells" "count" Lower;
    layer "sweep.plan_ms" "ms" Lower;
    layer "sweep.cell_us_p50" "us" Lower;
    layer "sweep.cell_us_p99" "us" Lower;
    layer "sweep.merge_ms" "ms" Lower;
    layer "sweep.par_efficiency" "ratio" Higher;
    layer "sdl.compile_ms" "ms" Lower;
    layer "soak.schedules" "count" Higher;
    layer "soak.findings_new" "count" Higher;
    layer "soak.findings_dup" "count" Higher;
    layer "store.add_us" "us" Lower;
    layer "store.dup_add_us" "us" Lower;
    layer "store.cement_ms" "ms" Lower;
    layer "store.cement_nofsync_ms" "ms" Lower;
    layer "store.open_ms" "ms" Lower;
    layer "remote.inproc_job_s" "s" Lower;
    layer "remote.overhead_ratio" "ratio" Lower;
    layer "remote.shard_overhead_ms" "ms" Lower;
    layer "net.shards" "count" Lower;
    layer "net.frames_per_job" "count" Lower;
    layer "net.cache_hits" "count" Higher;
    layer "net.cache_hit_s" "s" Lower;
    layer "net.stats_roundtrip_ms" "ms" Lower;
    layer "dist.spawned" "count" Lower;
    layer "dist.reassigned" "count" Lower;
    layer "frame.roundtrip_tcp_us" "us" Lower;
    layer "frame.roundtrip_unix_us" "us" Lower;
    layer "frame.encode_us" "us" Lower;
    layer "json.decode_us" "us" Lower;
    layer "journal.append_us" "us" Lower;
    layer "journal.append_fsync_us" "us" Lower;
    layer "trace.overhead_ratio" "ratio" Higher;
    layer "attrib.unexplained_share" "ratio" Lower;
  ]

let unit_of name =
  match List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer) with
  | Some m -> m.unit_
  | None -> invalid_arg ("unknown metric " ^ name)

let run_seconds = 18

(* The BENCHMARK.json document, key order included. *)
let manifest () =
  let open Svm.Json in
  let better = function Higher -> String "higher" | Lower -> String "lower" in
  let metric m =
    Obj
      ([
         ("name", String m.name);
         ("unit", String m.unit_);
         ("better", better m.better);
       ]
      @ match m.bound with Some b -> [ ("bound", Float b) ] | None -> [])
  in
  Obj
    [
      ( "command",
        List [ String "python3"; String "perfbench/run.py" ] );
      ("paths", List [ String "perfbench" ]);
      ("run_seconds", Int run_seconds);
      ( "workloads",
        List
          (List.map
             (fun (name, why) -> Obj [ ("name", String name); ("why", String why) ])
             workloads) );
      ("end_to_end", List (List.map metric end_to_end));
      ("per_layer", List (List.map metric per_layer));
    ]
