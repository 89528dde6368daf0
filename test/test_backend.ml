(* LUT mapping, ASIC mapping, STA, power, CEC, AIGER. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng
module Lut_map = Sbm_lutmap.Lut_map

(* Evaluate a LUT mapping functionally: each LUT's function is the
   cone function of its root over its leaves. *)
let lut_mapping_eval aig (mapping : Lut_map.mapping) bits =
  let values = Hashtbl.create 256 in
  for i = 0 to Aig.num_inputs aig - 1 do
    Hashtbl.replace values (Aig.node_of (Aig.input_lit aig i)) bits.(i)
  done;
  Hashtbl.replace values 0 false;
  let lut_of = Hashtbl.create 256 in
  List.iter (fun (l : Lut_map.lut) -> Hashtbl.replace lut_of l.Lut_map.root l) mapping.Lut_map.luts;
  let rec value v =
    match Hashtbl.find_opt values v with
    | Some b -> b
    | None ->
      let lut = Hashtbl.find lut_of v in
      let leaf_bits = Array.map value lut.Lut_map.leaves in
      (* Evaluate the cone of v over the leaves via recursive AIG
         evaluation bounded by the leaf set. *)
      let memo = Hashtbl.create 16 in
      Array.iteri (fun i leaf -> Hashtbl.replace memo leaf leaf_bits.(i)) lut.Lut_map.leaves;
      Hashtbl.replace memo 0 false;
      let rec eval_node w =
        match Hashtbl.find_opt memo w with
        | Some b -> b
        | None ->
          let f0 = Aig.fanin0 aig w and f1 = Aig.fanin1 aig w in
          let v0 = eval_node (Aig.node_of f0) in
          let v0 = if Aig.is_compl f0 then not v0 else v0 in
          let v1 = eval_node (Aig.node_of f1) in
          let v1 = if Aig.is_compl f1 then not v1 else v1 in
          let b = v0 && v1 in
          Hashtbl.replace memo w b;
          b
      in
      let b = eval_node v in
      Hashtbl.replace values v b;
      b
  in
  Array.map
    (fun l ->
      let b = value (Aig.node_of l) in
      if Aig.is_compl l then not b else b)
    (Aig.outputs aig)

let test_lutmap_cover () =
  let rng = Rng.create 301 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
    let mapping = Lut_map.map aig in
    Lut_map.check aig mapping;
    Alcotest.(check bool) "lut count positive" true
      (mapping.Lut_map.lut_count > 0 || Aig.size aig = 0);
    Alcotest.(check bool) "fewer LUTs than ANDs" true
      (mapping.Lut_map.lut_count <= Aig.size aig)
  done

let test_lutmap_function () =
  let rng = Rng.create 302 in
  for _ = 1 to 6 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let mapping = Lut_map.map aig in
    for m = 0 to 127 do
      let bits = Array.init 7 (fun i -> (m lsr i) land 1 = 1) in
      let expected = Sbm_aig.Sim.eval aig bits in
      let got = lut_mapping_eval aig mapping bits in
      if expected <> got then Alcotest.failf "LUT mapping differs on minterm %d" m
    done
  done

let test_lutmap_k_respected () =
  let rng = Rng.create 303 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:80 ~outputs:4 rng in
  List.iter
    (fun k ->
      let mapping = Lut_map.map ~k aig in
      List.iter
        (fun (l : Lut_map.lut) ->
          Alcotest.(check bool) "cut width" true (Array.length l.Lut_map.leaves <= k))
        mapping.Lut_map.luts)
    [ 2; 4; 6 ]

let test_asic_mapping_function () =
  let rng = Rng.create 304 in
  for _ = 1 to 6 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let netlist = Sbm_asic.Mapper.map aig in
    Sbm_asic.Netlist.check netlist;
    for m = 0 to 127 do
      let bits = Array.init 7 (fun i -> (m lsr i) land 1 = 1) in
      let expected = Sbm_aig.Sim.eval aig bits in
      let got = Sbm_asic.Netlist.eval netlist bits in
      if expected <> got then Alcotest.failf "netlist differs on minterm %d" m
    done
  done

let test_asic_constant_outputs () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  ignore (Aig.add_output aig Aig.const0);
  ignore (Aig.add_output aig Aig.const1);
  ignore (Aig.add_output aig a);
  let netlist = Sbm_asic.Mapper.map aig in
  Sbm_asic.Netlist.check netlist;
  List.iter
    (fun bits ->
      let out = Sbm_asic.Netlist.eval netlist [| bits |] in
      Alcotest.(check bool) "const0" false out.(0);
      Alcotest.(check bool) "const1" true out.(1);
      Alcotest.(check bool) "wire" bits out.(2))
    [ true; false ]

let test_sta_monotone () =
  let rng = Rng.create 305 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
  let netlist = Sbm_asic.Mapper.map aig in
  let report = Sbm_asic.Sta.analyze netlist in
  Alcotest.(check bool) "critical path positive" true (report.Sbm_asic.Sta.arrival_max > 0.0);
  Alcotest.(check (float 1e-9)) "no negative slack at own clock" 0.0 report.Sbm_asic.Sta.wns;
  (* A tighter clock creates negative slack. *)
  let tight = Sbm_asic.Sta.analyze ~clock:(report.Sbm_asic.Sta.arrival_max /. 2.0) netlist in
  Alcotest.(check bool) "wns negative" true (tight.Sbm_asic.Sta.wns < 0.0);
  Alcotest.(check bool) "tns <= wns" true (tight.Sbm_asic.Sta.tns <= tight.Sbm_asic.Sta.wns)

let test_power_positive_and_deterministic () =
  let rng = Rng.create 306 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
  let netlist = Sbm_asic.Mapper.map aig in
  let p1 = Sbm_asic.Power.dynamic netlist in
  let p2 = Sbm_asic.Power.dynamic netlist in
  Alcotest.(check bool) "power positive" true (p1 > 0.0);
  Alcotest.(check (float 1e-9)) "deterministic" p1 p2

let test_smaller_area_after_optimization () =
  let rng = Rng.create 307 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:80 ~outputs:5 rng in
  let optimized = Sbm_core.Flow.baseline aig in
  let area_before = Sbm_asic.Netlist.area (Sbm_asic.Mapper.map aig) in
  let area_after = Sbm_asic.Netlist.area (Sbm_asic.Mapper.map optimized) in
  Alcotest.(check bool)
    (Printf.sprintf "area does not grow (%.1f -> %.1f)" area_before area_after)
    true
    (area_after <= area_before *. 1.05)

(* --- CEC --- *)

let test_cec_equivalent () =
  let rng = Rng.create 308 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
  let copy = Aig.copy aig in
  Alcotest.(check bool) "self equivalence" true (Sbm_cec.Cec.equiv aig copy)

let test_cec_detects_difference () =
  let rng = Rng.create 309 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
  let broken = Aig.copy aig in
  (* Flip one output. *)
  Aig.set_output broken 0 (Aig.lnot (Aig.output_lit broken 0));
  match Sbm_cec.Cec.check aig broken with
  | Sbm_cec.Cec.Counterexample cex ->
    let oa = Sbm_aig.Sim.eval aig cex in
    let ob = Sbm_aig.Sim.eval broken cex in
    Alcotest.(check bool) "cex is real" true (oa <> ob)
  | Sbm_cec.Cec.Equivalent -> Alcotest.fail "must detect the inversion"
  | Sbm_cec.Cec.Unknown -> Alcotest.fail "unexpected unknown"

let test_cec_subtle_difference () =
  (* Differ in exactly one minterm: simulation will likely miss it,
     SAT must catch it. *)
  let build extra =
    let aig = Aig.create () in
    let x = Array.init 10 (fun _ -> Aig.add_input aig) in
    let conj = Aig.band_list aig (Array.to_list x) in
    let out = if extra then conj else Aig.const0 in
    ignore (Aig.add_output aig out);
    aig
  in
  let a = build true and b = build false in
  (match Sbm_cec.Cec.check a b with
  | Sbm_cec.Cec.Counterexample cex ->
    Alcotest.(check bool) "cex hits the single minterm" true (Array.for_all Fun.id cex)
  | Sbm_cec.Cec.Equivalent -> Alcotest.fail "single-minterm difference missed"
  | Sbm_cec.Cec.Unknown -> Alcotest.fail "unexpected unknown")

(* --- AIGER --- *)

let test_aiger_roundtrip () =
  let rng = Rng.create 310 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let text = Sbm_aig.Aiger.write aig in
    let back = Sbm_aig.Aiger.read text in
    Aig.check back;
    Alcotest.(check int) "inputs" (Aig.num_inputs aig) (Aig.num_inputs back);
    Alcotest.(check int) "outputs" (Aig.num_outputs aig) (Aig.num_outputs back);
    Helpers.assert_equiv_exhaustive ~msg:"aiger roundtrip" aig back
  done

let test_aiger_rejects_latches () =
  match Sbm_aig.Aiger.read "aag 1 0 1 0 0\n2 3\n" with
  | exception Sbm_aig.Aiger.Error _ -> ()
  | _ -> Alcotest.fail "latches must be rejected"

let suite =
  [
    Alcotest.test_case "lut mapping covers" `Quick test_lutmap_cover;
    Alcotest.test_case "lut mapping function" `Quick test_lutmap_function;
    Alcotest.test_case "lut k respected" `Quick test_lutmap_k_respected;
    Alcotest.test_case "asic mapping function" `Quick test_asic_mapping_function;
    Alcotest.test_case "asic constant outputs" `Quick test_asic_constant_outputs;
    Alcotest.test_case "sta monotonicity" `Quick test_sta_monotone;
    Alcotest.test_case "power estimation" `Quick test_power_positive_and_deterministic;
    Alcotest.test_case "optimization shrinks area" `Quick test_smaller_area_after_optimization;
    Alcotest.test_case "cec equivalent" `Quick test_cec_equivalent;
    Alcotest.test_case "cec detects inversion" `Quick test_cec_detects_difference;
    Alcotest.test_case "cec subtle difference" `Quick test_cec_subtle_difference;
    Alcotest.test_case "aiger roundtrip" `Quick test_aiger_roundtrip;
    Alcotest.test_case "aiger rejects latches" `Quick test_aiger_rejects_latches;
  ]
