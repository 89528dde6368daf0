(* Cross-cutting flow robustness: degenerate networks, edge shapes,
   and end-to-end LUT/ASIC pipelines on structured circuits. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

let all_engines =
  [
    ("rewrite", fun aig -> ignore (Sbm_aig.Rewrite.run aig); aig);
    ("refactor", fun aig -> ignore (Sbm_aig.Refactor.run aig); aig);
    ("resub", fun aig -> ignore (Sbm_aig.Resub.run aig); aig);
    ("balance", fun aig -> Sbm_aig.Balance.run aig);
    ("diff", fun aig -> ignore (Sbm_core.Diff_resub.optimize aig); aig);
    ("mspf", fun aig -> ignore (Sbm_core.Mspf.optimize aig); aig);
    ("hetero", fun aig -> Sbm_core.Hetero_kernel.run aig);
    ("sweep", fun aig -> fst (Sbm_sat.Sweep.run aig));
    ("redundancy", fun aig -> ignore (Sbm_sat.Redundancy.run aig); aig);
    ("baseline", fun aig -> Sbm_core.Flow.baseline aig);
  ]

let degenerate_networks () =
  (* A zoo of edge-case shapes every engine must survive. *)
  let empty () =
    let aig = Aig.create () in
    ignore (Aig.add_input aig);
    aig
  in
  let const_outputs () =
    let aig = Aig.create () in
    ignore (Aig.add_input aig);
    ignore (Aig.add_output aig Aig.const0);
    ignore (Aig.add_output aig Aig.const1);
    aig
  in
  let no_inputs () =
    let aig = Aig.create () in
    ignore (Aig.add_output aig Aig.const0);
    ignore (Aig.add_output aig Aig.const1);
    aig
  in
  let unused_input () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    ignore (Aig.add_input aig);
    let c = Aig.add_input aig in
    ignore (Aig.add_output aig (Aig.lnot (Aig.band aig a c)));
    aig
  in
  let wire () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    ignore (Aig.add_output aig a);
    ignore (Aig.add_output aig (Aig.lnot a));
    aig
  in
  let single_and () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    let b = Aig.add_input aig in
    ignore (Aig.add_output aig (Aig.band aig a b));
    aig
  in
  let duplicate_outputs () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    let b = Aig.add_input aig in
    let x = Aig.band aig a b in
    ignore (Aig.add_output aig x);
    ignore (Aig.add_output aig x);
    ignore (Aig.add_output aig (Aig.lnot x));
    aig
  in
  let deep_chain () =
    let aig = Aig.create () in
    let a = Aig.add_input aig in
    let b = Aig.add_input aig in
    let acc = ref a in
    for _ = 1 to 40 do
      acc := Aig.bxor aig !acc b
    done;
    ignore (Aig.add_output aig !acc);
    aig
  in
  [
    ("empty", empty ()); ("const outputs", const_outputs ());
    ("no inputs", no_inputs ()); ("unused input", unused_input ()); ("wire", wire ());
    ("single and", single_and ()); ("duplicate outputs", duplicate_outputs ());
    ("deep chain", deep_chain ());
  ]

(* Every input assignment of a (small) network. *)
let assignments n = List.init (1 lsl n) (fun m -> Array.init n (fun i -> (m lsr i) land 1 = 1))

let test_engines_on_degenerate () =
  List.iter
    (fun (shape, aig) ->
      List.iter
        (fun (engine, run) ->
          let original = Aig.copy aig in
          let result = run (Aig.copy aig) in
          Aig.check result;
          Helpers.assert_equiv_exhaustive
            ~msg:(Printf.sprintf "%s on %s" engine shape)
            original result)
        all_engines;
      List.iter
        (fun script ->
          let result = Sbm_core.Flow.run script aig in
          Aig.check result;
          match Sbm_cec.Cec.check aig result with
          | Sbm_cec.Cec.Equivalent -> ()
          | _ ->
            Alcotest.failf "flow %s on %s not proven equal"
              (Sbm_core.Flow.to_string script) shape)
        Sbm_core.Flow.all;
      let mapping = Sbm_lutmap.Lut_map.map aig in
      Sbm_lutmap.Lut_map.check aig mapping;
      let netlist = Sbm_asic.Mapper.map aig in
      Sbm_asic.Netlist.check netlist;
      List.iter
        (fun bits ->
          if Sbm_aig.Sim.eval aig bits <> Sbm_asic.Netlist.eval netlist bits then
            Alcotest.failf "mapped netlist differs on %s" shape)
        (assignments (Aig.num_inputs aig)))
    (degenerate_networks ())

let test_full_flow_on_structured () =
  (* End-to-end: generator -> flow -> LUT map -> ASIC map, all checked. *)
  List.iter
    (fun (b, scale) ->
      let aig = Sbm_epfl.Epfl.generate ~scale b in
      let optimized = Sbm_core.Flow.sbm_once aig in
      (match Sbm_cec.Cec.check aig optimized with
      | Sbm_cec.Cec.Equivalent -> ()
      | _ -> Alcotest.failf "flow broke %s" (Sbm_epfl.Epfl.name b));
      let mapping = Sbm_lutmap.Lut_map.map optimized in
      Sbm_lutmap.Lut_map.check optimized mapping;
      let netlist = Sbm_asic.Mapper.map optimized in
      Sbm_asic.Netlist.check netlist;
      (* Functional spot-check of the mapped netlist. *)
      let rng = Rng.create 77 in
      for _ = 1 to 16 do
        let bits =
          Array.init (Aig.num_inputs optimized) (fun _ -> Rng.bool rng)
        in
        if Sbm_aig.Sim.eval optimized bits <> Sbm_asic.Netlist.eval netlist bits
        then Alcotest.failf "mapped netlist differs for %s" (Sbm_epfl.Epfl.name b)
      done)
    [ (Sbm_epfl.Epfl.Int2float, 1.0); (Sbm_epfl.Epfl.Ctrl, 1.0); (Sbm_epfl.Epfl.Sin, 0.25) ]

let test_partition_limit_extremes () =
  let rng = Rng.create 405 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
  (* Tiny limits: many partitions, engines still sound. *)
  let limits =
    { Sbm_partition.Partition.max_levels = 1; max_nodes = 2; max_leaves = 4 }
  in
  let parts = Sbm_partition.Partition.compute aig limits in
  Alcotest.(check bool) "many partitions" true (List.length parts > 5);
  let original = Aig.copy aig in
  let config = { Sbm_core.Diff_resub.default_config with limits } in
  ignore (Sbm_core.Diff_resub.optimize ~config aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive ~msg:"tiny partitions" original aig

let test_flow_idempotent_safety () =
  (* Applying the flow twice keeps equivalence and never grows. *)
  let rng = Rng.create 406 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
  let once = Sbm_core.Flow.sbm_once aig in
  let twice = Sbm_core.Flow.sbm_once once in
  Helpers.assert_equiv_exhaustive ~msg:"idempotent safety" aig twice;
  Alcotest.(check bool) "no growth" true (Aig.size twice <= Aig.size once)

let test_gradient_move_log () =
  let rng = Rng.create 407 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:45 ~outputs:4 rng in
  let moves = ref [] in
  let _, totals =
    Helpers.with_totals (fun _ ->
        Sbm_core.Gradient.run
          ~explain:(fun e -> moves := (e.Sbm_core.Gradient.move, e.gain) :: !moves)
          ~config:{ Sbm_core.Gradient.default_config with budget = 20 }
          aig)
  in
  (* One explain event per attempted move, and every recorded gain is
     >= 0 (moves revert losing changes). *)
  List.iter
    (fun (name, gain) ->
      Alcotest.(check bool) (name ^ " gain >= 0") true (gain >= 0))
    !moves;
  Alcotest.(check bool) "log nonempty" true (!moves <> []);
  Alcotest.(check int) "one event per attempt"
    (Helpers.count totals "gradient.moves_tried")
    (List.length !moves)

let suite =
  [
    Alcotest.test_case "all engines on degenerate shapes" `Quick test_engines_on_degenerate;
    Alcotest.test_case "generator -> flow -> mappers" `Slow test_full_flow_on_structured;
    Alcotest.test_case "extreme partition limits" `Quick test_partition_limit_extremes;
    Alcotest.test_case "flow applied twice" `Slow test_flow_idempotent_safety;
    Alcotest.test_case "gradient move log" `Quick test_gradient_move_log;
  ]
