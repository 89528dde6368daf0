(* Functional filtering in the Boolean-difference engine, plus stress
   over the structured benchmark generators. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

let test_signature_filter_sound () =
  let rng = Rng.create 503 in
  for _ = 1 to 5 do
    let aig = Helpers.random_xor_aig ~inputs:8 ~gates:50 ~outputs:4 rng in
    let original = Aig.copy aig in
    let config =
      { Sbm_core.Diff_resub.default_config with
        prefilter = Some (Sbm_core.Prefilter.create_bank ()) }
    in
    ignore (Sbm_core.Diff_resub.optimize ~config aig);
    Helpers.assert_equiv_exhaustive ~msg:"filtered diff" original aig
  done

let test_filter_only_skips () =
  (* The filter must never enable a rewrite the unfiltered engine
     would reject — it can only skip pairs. Equivalence plus gain <=
     unfiltered gain would be flaky; instead check both runs are
     equivalent to the source. *)
  let rng = Rng.create 504 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:45 ~outputs:4 rng in
  List.iter
    (fun prefilter ->
      let copy = Aig.copy aig in
      let config = { Sbm_core.Diff_resub.default_config with prefilter } in
      ignore (Sbm_core.Diff_resub.optimize ~config copy);
      Helpers.assert_equiv_exhaustive ~msg:"filter soundness" aig copy)
    [ Some (Sbm_core.Prefilter.create_bank ()); None ]

let test_diff_on_structured () =
  (* The engine's target shape: arithmetic reconvergence. *)
  List.iter
    (fun (b, scale) ->
      let aig = Sbm_epfl.Epfl.generate ~scale b in
      let original = Aig.copy aig in
      ignore (Sbm_core.Diff_resub.optimize aig);
      Aig.check aig;
      match Sbm_cec.Cec.check original aig with
      | Sbm_cec.Cec.Equivalent -> ()
      | Sbm_cec.Cec.Counterexample _ ->
        Alcotest.failf "diff broke %s" (Sbm_epfl.Epfl.name b)
      | Sbm_cec.Cec.Unknown -> ())
    [ (Sbm_epfl.Epfl.Sin, 0.25); (Sbm_epfl.Epfl.Max, 0.125); (Sbm_epfl.Epfl.Square, 0.125) ]

let suite =
  [
    Alcotest.test_case "signature filter sound" `Quick test_signature_filter_sound;
    Alcotest.test_case "filter only skips" `Quick test_filter_only_skips;
    Alcotest.test_case "diff on structured circuits" `Slow test_diff_on_structured;
  ]
