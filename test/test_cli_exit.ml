(* The one exit-code convention of the asmsim binary, asserted against
   the real executable: 0 clean, 1 finding, 2 usage-or-input error,
   3 internal/distributed failure. Every row forks ../bin/asmsim.exe
   (a dune dep of this test) through /bin/sh. *)

let exe = Unix.realpath "../bin/asmsim.exe"

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let run_case args =
  let cmd = Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote exe) args in
  match Unix.system cmd with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "stopped by signal %d" s

let table =
  [
    (* 0 — clean *)
    ("canonical 3,1,1", 0);
    ("classes -t 4 --x-max 5", 0);
    ("sweep --algo safe_agreement --runs 200 --out " ^ tmp "cli0.replay", 0);
    ( "sweep --algo safe_agreement_no_cancel --expect-violation --out "
      ^ tmp "cli1.replay",
      0 );
    (* --jobs 0 = one domain per core, on both fan-out subcommands *)
    ("sweep --algo safe_agreement --runs 200 --jobs 0 --out "
     ^ tmp "cli4.replay", 0);
    ( "explore --algo safe_agreement_no_cancel --expect-violation --jobs 0",
      0 );
    ( "soak --algo safe_agreement --schedules 10 --jobs 0 --corpus "
      ^ tmp "cli-soak-jobs0",
      0 );
    (* the DSL surface: check/compile/fmt on the shipped examples, a
       sweep of a scenario file, and the registry listing *)
    ("sdl check ../examples/x_safe_agreement.sdl", 0);
    ("sdl compile ../examples/safe_agreement_no_cancel.sdl", 0);
    ("sdl fmt ../examples/x_safe_agreement_first_subset.sdl", 0);
    ( "sweep --scenario-file ../examples/x_safe_agreement.sdl --out "
      ^ tmp "cli5.replay",
      0 );
    ("scenarios", 0);
    ("scenarios --json --scenario-dir ../examples", 0);
    ("stats --scenario-file ../examples/safe_agreement_no_cancel.sdl --json", 0);
    (* 1 — finding *)
    ("sweep --algo safe_agreement_no_cancel --out " ^ tmp "cli2.replay", 1);
    ("explore --algo safe_agreement_no_cancel --crashes 1", 1);
    (* 2 — usage or input error *)
    ("definitely-not-a-subcommand", 2);
    ("canonical", 2);
    ("canonical not-a-model", 2);
    ("sweep --algo safe_agreement --no-such-flag", 2);
    ("run-task --task nope", 2);
    ("simulate --task nope --target 3,1,1", 2);
    ("experiment NO_SUCH_EXPERIMENT", 2);
    ("sweep --algo no_such_scenario", 2);
    (* resize below the scenario's minimum names the valid range *)
    ("sweep --algo safe_agreement -n 1", 2);
    ("explore --algo x_safe_agreement_first_subset -n 3", 2);
    (* neither --algo nor --scenario-file *)
    ("sweep", 2);
    ("soak --until 10", 2);
    ("sweep --scenario-file /no/such/file.sdl", 2);
    (* a file that is not DSL at all still fails with a typed parse
       error, not an exception *)
    ("sdl check ../bin/asmsim.exe", 2);
    ("sdl fmt /no/such/file.sdl", 2);
    ("stats ../examples/x_safe_agreement.sdl --algo safe_agreement", 2);
    ("sweep --algo safe_agreement --tiers gamma-rays", 2);
    ("soak --algo safe_agreement --tiers gamma-rays", 2);
    ("explore --algo no_such_scenario", 2);
    ("replay /no/such/file.replay", 2);
    ("serve --resume no-such-job --journal-dir /tmp/asmsim-cli-nojobs", 2);
    (* a worker needs a queue to pull from *)
    ("work", 2);
    ("stats", 2);
    (* a flag that cannot take effect in the chosen mode is rejected,
       never silently ignored *)
    ("sweep --algo safe_agreement --runs 200 --resume nosuch", 2);
    ( "explore --algo safe_agreement_no_cancel --expect-violation \
       --connect 127.0.0.1:1 --dist 1",
      2 );
    ( "explore --algo safe_agreement_no_cancel --expect-violation --dist 1 \
       --metrics-out " ^ tmp "cli-dist.metrics.json",
      2 );
    ( "explore --algo safe_agreement_no_cancel --expect-violation \
       --connect 127.0.0.1:1 --metrics-out " ^ tmp "cli-net.metrics.json",
      2 );
    ("sweep --algo safe_agreement --runs 200 --dist 1 --jobs 2", 2);
    ("sweep --algo safe_agreement --runs 200 --connect 127.0.0.1:1 --jobs 2", 2);
    ("sweep --algo safe_agreement --runs 200 --shard-size 5", 2);
    ("sweep --algo safe_agreement --runs 200 --shard-timeout 5", 2);
    ("sweep --algo safe_agreement --runs 200 --chaos-kill-shard 0", 2);
    ( "sweep --algo safe_agreement --runs 200 --journal-dir "
      ^ tmp "cli-jobs",
      2 );
    ( "sweep --algo safe_agreement --runs 200 --connect 127.0.0.1:1 \
       --shard-size 5",
      2 );
    ("sweep --algo safe_agreement --runs 200 --spans " ^ tmp "cli.spans", 2);
    ( "sweep --algo safe_agreement --runs 200 --dist 1 --spans "
      ^ tmp "cli.spans",
      2 );
    (* a chaos parameter without the chaos it parameterises *)
    ( "soak --algo safe_agreement --schedules 10 --chaos-at 5 --corpus "
      ^ tmp "cli-soak-chaos-at",
      2 );
    ( "soak --algo safe_agreement --schedules 10 --chaos-store bitflip \
       --chaos-at 5 --corpus " ^ tmp "cli-soak-bitflip-at",
      2 );
    ("work --connect " ^ tmp "cli-no-queue/queue" ^ " --chaos-every 3", 2);
    (* serve runs in exactly one of its three modes *)
    ("serve --list --listen 127.0.0.1:0", 2);
    ("serve --list --resume no-such-job", 2);
    ("serve --list --fsync", 2);
    ("serve --list --workers 3", 2);
    ("serve --list --shard-timeout 5", 2);
    ("serve", 2);
    (* 3 — internal / distributed failure *)
    ( "sweep --algo safe_agreement_no_cancel --dist 2 --resume no-such-job \
       --journal-dir /tmp/asmsim-cli-nojobs --out " ^ tmp "cli3.replay",
      3 );
  ]

let exit_codes () =
  List.iter
    (fun (args, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "asmsim %s" args)
        expected (run_case args))
    table

let suite =
  [ ("cli-exit", [ Alcotest.test_case "exit-code table" `Quick exit_codes ]) ]
