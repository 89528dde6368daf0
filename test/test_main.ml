let () =
  Alcotest.run "sbm"
    [
      ("util", Test_util.suite);
      ("truthtable", Test_tt.suite);
      ("cut-synth", Test_cut_synth.suite);
      ("bdd", Test_bdd.suite);
      ("aig", Test_aig.suite);
      ("arena", Test_arena.suite);
      ("passes", Test_passes.suite);
      ("sop", Test_sop.suite);
      ("network", Test_network.suite);
      ("sat", Test_sat.suite);
      ("core-engines", Test_core_engines.suite);
      ("backend", Test_backend.suite);
      ("epfl", Test_epfl.suite);
      ("flow-extra", Test_flow_extra.suite);
      ("minimize", Test_minimize.suite);
      ("npn-aiger", Test_npn_aiger.suite);
      ("diff-extra", Test_diff_extra.suite);
      ("mspf-tt", Test_mspf_tt.suite);
      ("word", Test_word.suite);
      ("obs", Test_obs.suite);
      ("flight", Test_flight.suite);
      ("provenance", Test_provenance.suite);
      ("report", Test_report.suite);
      ("ledger", Test_ledger.suite);
      ("par", Test_par.suite);
      ("prefilter", Test_prefilter.suite);
      ("metrics", Test_metrics.suite);
      ("fingerprint", Test_fingerprint.suite);
      ("formats", Test_formats.suite);
    ]
