let () =
  Alcotest.run "multiplicative-power-of-consensus-numbers"
    (Test_svm.suite @ Test_svm2.suite @ Test_explore.suite
   @ Test_explore_par.suite @ Test_objects.suite
   @ Test_model.suite @ Test_algorithms.suite @ Test_bg.suite
   @ Test_universal.suite @ Test_extensions.suite @ Test_adversary.suite
   @ Test_replay.suite @ Test_monitors.suite @ Test_faults.suite @ Test_sweep_golden.suite
   @ Test_plan_golden.suite
   @ Test_metrics.suite @ Test_timeline.suite @ Test_props.suite
   @ Test_json.suite @ Test_log.suite @ Test_dist.suite @ Test_net.suite
   @ Test_corpus.suite @ Test_sdl.suite @ Test_cli_exit.suite)
