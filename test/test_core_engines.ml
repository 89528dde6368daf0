(* The four SBM engines, each gated by equivalence and
   no-size-increase. MSPF substitutions are permissible (not locally
   equivalent), so the gate is primary-output equivalence. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng
module Partition = Sbm_partition.Partition

(* --- Boolean difference (Fig. 1 / Alg. 1 semantics) --- *)

let test_fig1_rewrite () =
  (* Build a network where f = (x1&x2) | (x3&~x4&x5), g = x1&x2; the
     difference f^g is small so the engine should consider the pair
     without crashing and keep equivalence. *)
  let aig = Aig.create () in
  let x = Array.init 5 (fun _ -> Aig.add_input aig) in
  let g = Aig.band aig x.(0) x.(1) in
  let t = Aig.band aig (Aig.band aig x.(2) (Aig.lnot x.(3))) x.(4) in
  let f = Aig.bor aig g t in
  ignore (Aig.add_output aig f);
  ignore (Aig.add_output aig g);
  let original = Aig.copy aig in
  ignore (Sbm_core.Diff_resub.optimize aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive ~msg:"fig1 equivalence" original aig

let test_diff_identity () =
  (* f = d ^ g with d, g in the network: Boolean difference must find
     the rewrite when f is structured wastefully. *)
  let aig = Aig.create () in
  let x = Array.init 4 (fun _ -> Aig.add_input aig) in
  let g = Aig.band aig x.(0) x.(1) in
  let d = Aig.band aig x.(2) x.(3) in
  ignore (Aig.add_output aig g);
  ignore (Aig.add_output aig d);
  (* f equivalent to d^g but built as a large mux structure. *)
  let f =
    Aig.bor aig
      (Aig.band aig g (Aig.lnot d))
      (Aig.band aig (Aig.lnot g) d)
  in
  ignore (Aig.add_output aig f);
  let original = Aig.copy aig in
  ignore (Sbm_core.Diff_resub.optimize aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive ~msg:"diff identity" original aig

let test_diff_random_gate () =
  let rng = Rng.create 201 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:35 ~outputs:4 rng in
    let original = Aig.copy aig in
    let size_before = Aig.size aig in
    let gain = Sbm_core.Diff_resub.optimize aig in
    Aig.check aig;
    Alcotest.(check bool) "gain >= 0" true (gain >= 0);
    Alcotest.(check bool) "not larger" true (Aig.size aig <= size_before);
    Helpers.assert_equiv_exhaustive ~msg:"diff resub gate" original aig
  done

let test_diff_monolithic () =
  let rng = Rng.create 202 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
  let original = Aig.copy aig in
  let config = { Sbm_core.Diff_resub.default_config with monolithic = true } in
  ignore (Sbm_core.Diff_resub.optimize ~config aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive ~msg:"monolithic diff" original aig

let test_diff_zero_gain_reshape () =
  let rng = Rng.create 203 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:30 ~outputs:3 rng in
  let original = Aig.copy aig in
  let config = { Sbm_core.Diff_resub.default_config with accept_zero = true } in
  ignore (Sbm_core.Diff_resub.optimize ~config aig);
  Aig.check aig;
  Alcotest.(check bool) "reshape never grows" true (Aig.size aig <= Aig.size original);
  Helpers.assert_equiv_exhaustive ~msg:"zero-gain diff" original aig

(* --- MSPF --- *)

let test_mspf_removes_unobservable () =
  (* y = (a & b) | (a & ~b & c); node (a&~b&c) is partially redundant:
     y == a & (b | c). More directly: z = x | (x & w) has w
     unobservable. *)
  let aig = Aig.create () in
  let x = Aig.add_input aig in
  let w = Aig.add_input aig in
  let inner = Aig.band aig x w in
  let z = Aig.bor aig x inner in
  ignore (Aig.add_output aig z);
  let original = Aig.copy aig in
  ignore (Sbm_core.Mspf.optimize aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive ~msg:"mspf absorb" original aig;
  Alcotest.(check int) "z collapses to x" 0 (Aig.size aig)

let test_mspf_random_gate () =
  let rng = Rng.create 204 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:35 ~outputs:4 rng in
    let original = Aig.copy aig in
    let size_before = Aig.size aig in
    let gain = Sbm_core.Mspf.optimize aig in
    Aig.check aig;
    Alcotest.(check bool) "gain >= 0" true (gain >= 0);
    Alcotest.(check bool) "not larger" true (Aig.size aig <= size_before);
    Helpers.assert_equiv_exhaustive ~msg:"mspf gate" original aig
  done

let test_mspf_budget_bailout () =
  (* A tiny BDD budget: the engine must skip everything gracefully. *)
  let rng = Rng.create 205 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:50 ~outputs:4 rng in
  let original = Aig.copy aig in
  let config = { Sbm_core.Mspf.default_config with bdd_node_limit = 4 } in
  let gain = Sbm_core.Mspf.optimize ~config aig in
  Alcotest.(check int) "nothing happens under a starved budget" 0 gain;
  Helpers.assert_equiv_exhaustive ~msg:"budget bailout" original aig

(* --- Heterogeneous elimination + kerneling --- *)

let test_hetero_gate () =
  let rng = Rng.create 206 in
  for _ = 1 to 6 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let result = Sbm_core.Hetero_kernel.run aig in
    Aig.check result;
    Helpers.assert_equiv_exhaustive ~msg:"hetero kernel gate" aig result
  done

let test_hetero_vs_homogeneous () =
  (* Both modes must preserve function; heterogeneous never loses to
     the move wrapper (callers keep the better). *)
  let rng = Rng.create 207 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:5 rng in
  let het = Sbm_core.Hetero_kernel.run aig in
  Helpers.assert_equiv_exhaustive ~msg:"hetero" aig het;
  let hom = Sbm_core.Hetero_kernel.run_homogeneous ~threshold:50 aig in
  Helpers.assert_equiv_exhaustive ~msg:"homogeneous" aig hom

(* --- Gradient engine --- *)

let test_gradient_gate () =
  let rng = Rng.create 208 in
  for _ = 1 to 4 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:45 ~outputs:4 rng in
    let original = Aig.copy aig in
    let size_before = Aig.size aig in
    let optimized, totals =
      Helpers.with_totals (fun _ ->
          Sbm_core.Gradient.run
            ~config:{ Sbm_core.Gradient.default_config with budget = 30 }
            aig)
    in
    Aig.check optimized;
    Alcotest.(check bool) "never grows" true (Aig.size optimized <= size_before);
    Alcotest.(check bool) "tried some moves" true
      (Helpers.count totals "gradient.moves_tried" > 0);
    Helpers.assert_equiv_exhaustive ~msg:"gradient gate" original optimized
  done

let test_gradient_parallel_selection () =
  let rng = Rng.create 209 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
  let original = Aig.copy aig in
  let optimized =
    Sbm_core.Gradient.run
      ~config:
        {
          Sbm_core.Gradient.default_config with
          budget = 25;
          selection = Sbm_core.Gradient.Parallel;
        }
      aig
  in
  Aig.check optimized;
  Helpers.assert_equiv_exhaustive ~msg:"parallel gradient" original optimized

let test_gradient_respects_budget () =
  let rng = Rng.create 210 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
  let _, totals =
    Helpers.with_totals (fun _ ->
        Sbm_core.Gradient.run
          ~config:
            { Sbm_core.Gradient.default_config with budget = 5; min_gradient = 2.0 }
          aig)
  in
  (* min_gradient = 200% is unreachable, so no extension happens. *)
  Alcotest.(check int) "no extensions" 0
    (Helpers.count totals "gradient.budget_extensions");
  Alcotest.(check bool) "few moves" true
    (Helpers.count totals "gradient.moves_tried" <= 10)

(* --- Full flow --- *)

let test_flow_baseline () =
  let rng = Rng.create 211 in
  for _ = 1 to 3 do
    let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
    let optimized = Sbm_core.Flow.baseline aig in
    Aig.check optimized;
    Alcotest.(check bool) "baseline never grows" true (Aig.size optimized <= Aig.size aig);
    Helpers.assert_equiv_exhaustive ~msg:"baseline flow" aig optimized
  done

let test_flow_sbm () =
  let rng = Rng.create 212 in
  for _ = 1 to 2 do
    let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
    let optimized = Sbm_core.Flow.sbm_once aig in
    Aig.check optimized;
    Helpers.assert_equiv_exhaustive ~msg:"sbm flow" aig optimized
  done

let test_flow_sbm_beats_or_ties_baseline () =
  let rng = Rng.create 213 in
  let mutable_wins = ref 0 in
  for _ = 1 to 3 do
    let aig = Helpers.random_xor_aig ~inputs:8 ~gates:70 ~outputs:5 rng in
    let base = Sbm_core.Flow.baseline aig in
    let sbm = Sbm_core.Flow.sbm ~effort:Sbm_core.Flow.Low aig in
    Helpers.assert_equiv_exhaustive ~msg:"sbm full" aig sbm;
    if Aig.size sbm <= Aig.size base then incr mutable_wins
  done;
  Alcotest.(check bool)
    "SBM at least ties the baseline on most runs" true (!mutable_wins >= 2)

(* --- Partitioning --- *)

let test_partition_covers_all () =
  let rng = Rng.create 214 in
  let aig = Helpers.random_xor_aig ~inputs:10 ~gates:200 ~outputs:6 rng in
  let limits = { Partition.max_levels = 6; max_nodes = 40; max_leaves = 16 } in
  let parts = Partition.compute aig limits in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (p : Partition.t) ->
      Array.iter
        (fun v ->
          if Hashtbl.mem seen v then Alcotest.failf "node %d in two partitions" v;
          Hashtbl.add seen v ())
        p.Partition.nodes)
    parts;
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_and aig v && not (Hashtbl.mem seen v) then
        Alcotest.failf "node %d missing from partitions" v)
    order;
  (* Limits respected. *)
  List.iter
    (fun (p : Partition.t) ->
      Alcotest.(check bool) "size cap" true (Array.length p.Partition.nodes <= 40))
    parts

let test_partition_leaves_feed_members () =
  let rng = Rng.create 215 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:80 ~outputs:4 rng in
  let parts = Partition.compute aig Partition.default_limits in
  List.iter
    (fun (p : Partition.t) ->
      let members = Hashtbl.create 64 in
      Array.iter (fun v -> Hashtbl.add members v ()) p.Partition.nodes;
      Array.iter
        (fun v ->
          List.iter
            (fun f ->
              let w = Aig.node_of f in
              if w <> 0 && not (Hashtbl.mem members w) then
                if not (Array.exists (fun l -> l = w) p.Partition.leaves) then
                  Alcotest.failf "fanin %d neither member nor leaf" w)
            [ Aig.fanin0 aig v; Aig.fanin1 aig v ])
        p.Partition.nodes)
    parts

let test_whole_partition () =
  let rng = Rng.create 216 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:3 rng in
  let p = Partition.whole aig in
  Alcotest.(check int) "all nodes" (Aig.size aig) (Array.length p.Partition.nodes)

let suite =
  [
    Alcotest.test_case "fig1 scenario" `Quick test_fig1_rewrite;
    Alcotest.test_case "difference identity" `Quick test_diff_identity;
    Alcotest.test_case "diff resub random gate" `Quick test_diff_random_gate;
    Alcotest.test_case "diff resub monolithic" `Quick test_diff_monolithic;
    Alcotest.test_case "diff zero-gain reshape" `Quick test_diff_zero_gain_reshape;
    Alcotest.test_case "mspf absorbs unobservable" `Quick test_mspf_removes_unobservable;
    Alcotest.test_case "mspf random gate" `Quick test_mspf_random_gate;
    Alcotest.test_case "mspf budget bailout" `Quick test_mspf_budget_bailout;
    Alcotest.test_case "hetero kernel gate" `Quick test_hetero_gate;
    Alcotest.test_case "hetero vs homogeneous" `Quick test_hetero_vs_homogeneous;
    Alcotest.test_case "gradient gate" `Quick test_gradient_gate;
    Alcotest.test_case "gradient parallel" `Quick test_gradient_parallel_selection;
    Alcotest.test_case "gradient budget" `Quick test_gradient_respects_budget;
    Alcotest.test_case "baseline flow" `Quick test_flow_baseline;
    Alcotest.test_case "sbm flow" `Quick test_flow_sbm;
    Alcotest.test_case "sbm vs baseline" `Slow test_flow_sbm_beats_or_ties_baseline;
    Alcotest.test_case "partition covers all nodes" `Quick test_partition_covers_all;
    Alcotest.test_case "partition leaves" `Quick test_partition_leaves_feed_members;
    Alcotest.test_case "whole partition" `Quick test_whole_partition;
  ]

(* --- pinned candidate loops --- *)

(* What Boolean difference, MSPF and truth-table MSPF leave on the
   quick set and on control-3e3e, pinned by fold hash and gain, with
   and without a prefilter bank, together with the engines' candidate
   counters ([diff.pairs_tried], [mspf.candidates_examined]) for each:
   the structural filters in front of the candidate checks may get
   cheaper, never different. *)
let test_candidate_loops_pinned () =
  let module Epfl = Sbm_epfl.Epfl in
  let module M = Sbm_obs.Metrics in
  let circuits =
    List.map (fun b -> (Epfl.name b, fun () -> Epfl.generate b)) Epfl.quick_set
    @ [
        ( "control-3e3e",
          fun () -> Epfl.random_control ~seed:0x3E3E ~inputs:105 ~outputs:105 ~gates:700 );
      ]
  in
  let counter name =
    match M.find name with
    | Some c -> M.value c
    | None -> Alcotest.failf "counter %s is not registered" name
  in
  let bank on = if on then Some (Sbm_core.Prefilter.create_bank ()) else None in
  let diff on aig =
    Sbm_core.Diff_resub.optimize
      ~config:{ Sbm_core.Diff_resub.default_config with prefilter = bank on }
      aig
  in
  let mspf on aig =
    Sbm_core.Mspf.optimize ~config:{ Sbm_core.Mspf.default_config with prefilter = bank on } aig
  in
  List.iter
    (fun (engine, run, count, want) ->
      List.iter2
        (fun (name, generate) (hash, gain, off, on) ->
          List.iter
            (fun (bank_on, counted) ->
              let label = Printf.sprintf "%s %s, bank %b" engine name bank_on in
              let aig = generate () in
              let c0 = counter count in
              let got = run bank_on aig in
              Alcotest.(check string) (label ^ ": hash")
                (Printf.sprintf "%016Lx" hash)
                (Printf.sprintf "%016Lx" (Aig.fold_hash aig));
              Alcotest.(check int) (label ^ ": gain") gain got;
              Alcotest.(check int) (label ^ ": " ^ count) counted (counter count - c0))
            [ (false, off); (true, on) ])
        circuits want)
    [
      ( "diff", diff, "diff.pairs_tried",
        [ (0x5392750bdee2598fL, 3, 4753, 411); (0x0bd76d719b1d6e9cL, 5, 3329, 811);
          (0x8d3f7eecf5ba578cL, 0, 28600, 177); (0x7539f6dc8c4343d8L, 11, 3785, 514);
          (0xd8b6b755e6194245L, 0, 1004, 150); (0x4bfbb3575e9b4d2bL, 0, 5504, 620) ] );
      ( "mspf", mspf, "mspf.candidates_examined",
        [ (0x188f8d70e6577a7dL, 12, 3459, 45); (0x36d2a74ddd3669a0L, 17, 2675, 94);
          (0x8d3f7eecf5ba578cL, 0, 0, 0); (0x483e728e01538849L, 5, 3530, 4);
          (0xd8b6b755e6194245L, 0, 4351, 0); (0x4bfbb3575e9b4d2bL, 0, 15114, 9) ] );
    ];
  List.iter2
    (fun (name, generate) (hash, gain) ->
      let aig = generate () in
      let got = Sbm_core.Mspf_tt.run aig in
      Alcotest.(check string) ("mspf-tt " ^ name ^ ": hash")
        (Printf.sprintf "%016Lx" hash)
        (Printf.sprintf "%016Lx" (Aig.fold_hash aig));
      Alcotest.(check int) ("mspf-tt " ^ name ^ ": gain") gain got)
    circuits
    [ (0x7510220bb870408aL, 6); (0x36d2a74ddd3669a0L, 17); (0x8d3f7eecf5ba578cL, 0);
      (0x74386561a3a1907cL, 9); (0xd8b6b755e6194245L, 0); (0x4bfbb3575e9b4d2bL, 0) ]

let suite =
  suite
  @ [
      Alcotest.test_case "diff and mspf keep their pinned outputs and counters" `Quick
        test_candidate_loops_pinned;
    ]
