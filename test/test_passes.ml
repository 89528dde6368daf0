(* The four classic AIG passes, each gated by exhaustive equivalence
   on random networks and by the no-size-increase guarantee. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

(* Allocated AND nodes that nothing references: the root of every
   candidate cone a pass forgot to release. [Aig.check] does not look
   for them and [Aig.size] does not count them. (Counting all ANDs the
   outputs do not reach would not do: the random networks carry
   unreachable logic, and a replaced node's cone shared with it stays
   allocated without any leak.) *)
let dangling_ands aig =
  let n = ref 0 in
  for v = 1 to Aig.num_nodes aig - 1 do
    if Aig.is_and aig v && Aig.nref aig v = 0 then incr n
  done;
  !n

let gate ~name ~pass ?(rounds = 12) ?(gen = `Mixed) () =
  let rng = Rng.create (Hashtbl.hash name) in
  for round = 1 to rounds do
    let aig =
      match gen with
      | `Plain -> Helpers.random_aig ~inputs:7 ~ands:60 ~outputs:4 rng
      | `Mixed -> Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng
    in
    let original = Aig.copy aig in
    let size_before = Aig.size aig in
    let dangling_before = dangling_ands aig in
    let optimized = pass aig in
    Aig.check optimized;
    let size_after = Aig.size optimized in
    if size_after > size_before then
      Alcotest.failf "%s grew the network on round %d (%d -> %d)" name round
        size_before size_after;
    let dangling_after = dangling_ands optimized in
    if dangling_after > dangling_before then
      Alcotest.failf "%s leaked candidate cones on round %d (%d -> %d dangling ANDs)"
        name round dangling_before dangling_after;
    Helpers.assert_equiv_exhaustive
      ~msg:(Printf.sprintf "%s equivalence, round %d" name round)
      original optimized
  done

let in_place pass aig =
  ignore (pass aig);
  aig

let test_rewrite () = gate ~name:"rewrite" ~pass:(in_place Sbm_aig.Rewrite.run) ()

let test_rewrite_zero () =
  gate ~name:"rewrite -z"
    ~pass:(in_place (Sbm_aig.Rewrite.run ~zero_gain:true))
    ()

let test_refactor () =
  gate ~name:"refactor" ~pass:(in_place (Sbm_aig.Refactor.run ~max_leaves:8)) ()

let test_refactor_wide () =
  gate ~name:"refactor wide" ~rounds:6
    ~pass:(in_place (Sbm_aig.Refactor.run ~max_leaves:12))
    ()

let test_resub () =
  gate ~name:"resub"
    ~pass:(in_place (Sbm_aig.Resub.run ~max_leaves:8 ~max_divisors:30))
    ()

let test_balance () =
  let rng = Rng.create 1234 in
  for _ = 1 to 12 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let balanced = Sbm_aig.Balance.run aig in
    Aig.check balanced;
    Helpers.assert_equiv_exhaustive ~msg:"balance equivalence" aig balanced;
    Alcotest.(check bool)
      "depth not larger than 2x original (sanity)" true
      (Aig.depth balanced <= (2 * Aig.depth aig) + 1)
  done

let test_balance_reduces_chain_depth () =
  (* A left-leaning AND chain of 8 inputs balances to depth 3. *)
  let aig = Aig.create () in
  let inputs = List.init 8 (fun _ -> Aig.add_input aig) in
  let chain = Aig.band_list aig inputs in
  ignore (Aig.add_output aig chain);
  Alcotest.(check int) "chain depth" 7 (Aig.depth aig);
  let balanced = Sbm_aig.Balance.run aig in
  Helpers.assert_equiv_exhaustive aig balanced;
  Alcotest.(check int) "balanced depth" 3 (Aig.depth balanced)

let test_rewrite_reduces_redundancy () =
  (* (a & b) | (a & ~b) = a: rewriting should find this. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let t1 = Aig.band aig a b in
  let t2 = Aig.band aig a (Aig.lnot b) in
  ignore (Aig.add_output aig (Aig.bor aig t1 t2));
  let before = Aig.size aig in
  let gain = Sbm_aig.Rewrite.run aig in
  Alcotest.(check bool) "found gain" true (gain > 0);
  Alcotest.(check int) "absorbed to a" 0 (Aig.size aig);
  Alcotest.(check bool) "smaller" true (Aig.size aig < before)

let test_resub_finds_divisor () =
  (* f = (a&b)&c, g = a&b exists: resub of deeper duplicated logic. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let g = Aig.band aig a b in
  ignore (Aig.add_output aig g);
  (* Duplicate structure with different association: (a&c)&b. *)
  let t = Aig.band aig a c in
  let f = Aig.band aig t b in
  ignore (Aig.add_output aig f);
  let original = Aig.copy aig in
  ignore (Sbm_aig.Resub.run aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive original aig

let test_pipeline () =
  (* Chain all passes repeatedly; invariants and equivalence hold. *)
  let rng = Rng.create 777 in
  for _ = 1 to 4 do
    let aig = ref (Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:5 rng) in
    let original = Aig.copy !aig in
    ignore (Sbm_aig.Rewrite.run !aig);
    ignore (Sbm_aig.Refactor.run ~max_leaves:10 !aig);
    aig := Sbm_aig.Balance.run !aig;
    ignore (Sbm_aig.Resub.run !aig);
    ignore (Sbm_aig.Rewrite.run ~zero_gain:true !aig);
    let compacted, _ = Aig.compact !aig in
    Aig.check compacted;
    Helpers.assert_equiv_exhaustive ~msg:"pipeline equivalence" original compacted
  done

let suite =
  [
    Alcotest.test_case "rewrite equivalence gate" `Quick test_rewrite;
    Alcotest.test_case "zero-gain rewrite gate" `Quick test_rewrite_zero;
    Alcotest.test_case "refactor equivalence gate" `Quick test_refactor;
    Alcotest.test_case "wide refactor gate" `Quick test_refactor_wide;
    Alcotest.test_case "resub equivalence gate" `Quick test_resub;
    Alcotest.test_case "balance equivalence gate" `Quick test_balance;
    Alcotest.test_case "balance chain depth" `Quick test_balance_reduces_chain_depth;
    Alcotest.test_case "rewrite absorbs redundancy" `Quick test_rewrite_reduces_redundancy;
    Alcotest.test_case "resub finds divisors" `Quick test_resub_finds_divisor;
    Alcotest.test_case "full pass pipeline" `Quick test_pipeline;
  ]

let test_resub_no_cycle_via_strash_regression () =
  (* Regression: on dividers, resub's XOR candidate strash-rebuilds the
     root (root = a & ~b is one term of a xor b); committing it used to
     close a combinational self-loop. The scaled divider reproduces the
     shape deterministically. *)
  let aig = Sbm_epfl.Epfl.generate ~scale:0.125 Sbm_epfl.Epfl.Div in
  let base = Sbm_core.Flow.baseline aig in
  let target = Aig.copy base in
  ignore (Sbm_aig.Resub.run ~max_leaves:10 ~max_divisors:40 target);
  Aig.check target;
  let rng = Rng.create 0xd1e in
  for _ = 1 to 32 do
    let words = Sbm_aig.Sim.random_inputs base rng in
    let vb = Sbm_aig.Sim.output_values base (Sbm_aig.Sim.simulate base words) in
    let vt = Sbm_aig.Sim.output_values target (Sbm_aig.Sim.simulate target words) in
    if vb <> vt then Alcotest.fail "resub broke the divider (cycle regression)"
  done

let test_replace_rejects_cycle () =
  (* Direct contract test: replacing a node by a literal whose cone
     contains it must be refused. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let x = Aig.band aig a b in
  let y = Aig.band aig x (Aig.lnot a) in
  ignore (Aig.add_output aig y);
  match Aig.replace aig (Aig.node_of x) y with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cycle-creating replace must be rejected"

let test_local_commit_contract () =
  let module Local = Sbm_aig.Local in
  let allocated aig =
    List.length (List.filter (Aig.is_and aig) (List.init (Aig.num_nodes aig) Fun.id))
  in
  (* A root that strashing rebuilds inside its candidate: root = a & ~b
     is one term of a xor b. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let root = Aig.node_of (Aig.band aig a (Aig.lnot b)) in
  ignore (Aig.add_output aig (Aig.lit_of root false));
  let xor = Aig.bxor aig a b in
  Alcotest.(check (option int)) "cycle rejected" None
    (Local.commit aig ~zero_gain:true root xor);
  Alcotest.(check bool) "candidate released" true (Aig.is_dead aig (Aig.node_of xor));
  Alcotest.(check int) "only the root stays allocated" 1 (allocated aig);
  Aig.check aig;
  (* A gain-0 candidate: (a & b) & c re-associated as a & (b & c). *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let root = Aig.node_of (Aig.band aig (Aig.band aig a b) c) in
  ignore (Aig.add_output aig (Aig.lit_of root false));
  let original = Aig.copy aig in
  let reassociated () = Aig.band aig a (Aig.band aig b c) in
  Alcotest.(check (option int)) "gain 0 refused without zero_gain" None
    (Local.commit aig ~zero_gain:false root (reassociated ()));
  Alcotest.(check int) "refused candidate released" 2 (allocated aig);
  Alcotest.(check (option int)) "gain 0 committed with zero_gain" (Some 0)
    (Local.commit aig ~zero_gain:true root (reassociated ()));
  Alcotest.(check bool) "root replaced" true (Aig.is_dead aig root);
  Alcotest.(check int) "size kept" 2 (Aig.size aig);
  Aig.check aig;
  Helpers.assert_equiv_exhaustive original aig;
  (* A positive-gain candidate: (a & b) | (a & ~b) is a, so the AND
     under the output is ~a. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let out = Aig.bor aig (Aig.band aig a b) (Aig.band aig a (Aig.lnot b)) in
  ignore (Aig.add_output aig out);
  let original = Aig.copy aig in
  let before = Aig.size aig in
  let gain = Local.commit aig ~zero_gain:false (Aig.node_of out) (Aig.lnot a) in
  Alcotest.(check (option int)) "gain is the size delta"
    (Some (before - Aig.size aig)) gain;
  Alcotest.(check (option int)) "whole cone reclaimed" (Some 3) gain;
  Aig.check aig;
  Helpers.assert_equiv_exhaustive original aig

(* The networks refactor and rewrite leave on the quick set, on sin at
   1/4 and on control-3e3e, pinned by fold hash: the decomposition
   search may get cheaper, never different. *)
let test_resynthesis_hashes () =
  let circuits =
    List.map (fun b -> (Sbm_epfl.Epfl.name b, fun () -> Sbm_epfl.Epfl.generate b))
      Sbm_epfl.Epfl.quick_set
    @ [
        ("sin", fun () -> Sbm_epfl.Epfl.generate ~scale:0.25 Sbm_epfl.Epfl.Sin);
        ( "control-3e3e",
          fun () ->
            Sbm_epfl.Epfl.random_control ~seed:0x3E3E ~inputs:105 ~outputs:105 ~gates:700 );
      ]
  in
  List.iter
    (fun (pass, run, want) ->
      List.iter2
        (fun (name, generate) want ->
          let aig = generate () in
          ignore (run aig);
          Alcotest.(check string) (pass ^ " " ^ name)
            (Printf.sprintf "%016Lx" want)
            (Printf.sprintf "%016Lx" (Aig.fold_hash aig)))
        circuits want)
    [
      ( "refactor 8", Sbm_aig.Refactor.run ~zero_gain:false ~max_leaves:8,
        [ 0x94638511fccb31e6L; 0x58937f976ef8ab29L; 0x8d3f7eecf5ba578cL;
          0x38f366053f9b4a11L; 0xd1adf152252d2aceL; 0x6c5faba232f32b5cL;
          0x8fe9e24ce6627cf3L ] );
      ( "refactor 10", Sbm_aig.Refactor.run ~zero_gain:false ~max_leaves:10,
        [ 0x94638511fccb31e6L; 0xd66663eb0b6ef9e1L; 0x8d3f7eecf5ba578cL;
          0x38f366053f9b4a11L; 0xd1adf152252d2aceL; 0x12cee854e57adbd8L;
          0x8fe9e24ce6627cf3L ] );
      ( "refactor 12", Sbm_aig.Refactor.run ~zero_gain:false ~max_leaves:12,
        [ 0x94638511fccb31e6L; 0x72b892531434e8a7L; 0x8d3f7eecf5ba578cL;
          0x38f366053f9b4a11L; 0xd1adf152252d2aceL; 0x893489f2fe499243L;
          0x8fe9e24ce6627cf3L ] );
      ( "rewrite", Sbm_aig.Rewrite.run ~zero_gain:false,
        [ 0x4bf80e883108f765L; 0x3d65016376442050L; 0x8d3f7eecf5ba578cL;
          0xa547386318087228L; 0x1b81a7c1aa3a2e4dL; 0x908bd4434ac640a5L;
          0x79cfdf15799526d1L ] );
      ( "rewrite -z", Sbm_aig.Rewrite.run ~zero_gain:true,
        [ 0xddd39837904526d4L; 0x1ebbec189359af19L; 0x8d3f7eecf5ba578cL;
          0x3ef65df4ee201dd8L; 0xe19ea4c0c0cc4f44L; 0xf1c1304895d50059L;
          0xaa0e157e1058da8aL ] );
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "resub divider cycle regression" `Slow
        test_resub_no_cycle_via_strash_regression;
      Alcotest.test_case "replace rejects cycles" `Quick test_replace_rejects_cycle;
      Alcotest.test_case "local commit contract" `Quick test_local_commit_contract;
    ]

(* Resub's exclusion test: one transitive-fanout mark per root must
   answer exactly what [in_tfi] answers for every node, on fresh random
   AIGs and after rewrite and resub have left dead nodes and stale
   fanout entries behind. *)
let test_tfo_mark_agrees_with_in_tfi =
  Helpers.qcheck_case ~count:30 "tfo mark agrees with in_tfi"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let aig = Helpers.random_xor_aig ~inputs:7 ~gates:30 ~outputs:4 rng in
      let agrees () =
        let n = Aig.num_nodes aig in
        List.for_all
          (fun root ->
            let in_tfo = Aig.tfo_mark aig root in
            List.for_all
              (fun v -> in_tfo v = Aig.in_tfi aig ~node:root ~root:v)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let fresh = agrees () in
      ignore (Sbm_aig.Rewrite.run aig);
      let rewritten = agrees () in
      ignore (Sbm_aig.Resub.run aig);
      fresh && rewritten && agrees ())

(* The networks resub leaves on the quick set, pinned by fold hash:
   divisor collection may get cheaper, never different. *)
let test_resub_quick_set_hashes () =
  List.iter2
    (fun b want ->
      let aig = Sbm_epfl.Epfl.generate b in
      ignore (Sbm_aig.Resub.run aig);
      Alcotest.(check string) (Sbm_epfl.Epfl.name b)
        (Printf.sprintf "%016Lx" want)
        (Printf.sprintf "%016Lx" (Aig.fold_hash aig)))
    Sbm_epfl.Epfl.quick_set
    [ 0x9da83a147df86da0L; 0x797d311cc514d2f8L; 0x8d3f7eecf5ba578cL;
      0x1a39bdbdc452e078L; 0x2dfcadd59c622e51L ]

(* Resub at the flow's and the gradient engine's parameter sets and at
   fuel-starved ones (few divisors, wide cuts), pinned by fold hash and
   gain with and without zero-gain commits, on the quick set,
   control-3e3e and div at 3/32. Divisor collection's fuel budget
   decides which side nodes join a window, and so which divisors are
   kept: it must run out exactly where it always has. Each row is
   (hash, gain) without and with [~zero_gain], per setting. *)
let test_resub_fuel_pins () =
  let settings = [ (6, 20); (8, 30); (9, 60); (10, 40); (6, 1); (8, 2); (12, 3); (16, 4) ] in
  let circuits =
    List.map (fun b -> (Sbm_epfl.Epfl.name b, fun () -> Sbm_epfl.Epfl.generate b))
      Sbm_epfl.Epfl.quick_set
    @ [
        ( "control-3e3e",
          fun () ->
            Sbm_epfl.Epfl.random_control ~seed:0x3E3E ~inputs:105 ~outputs:105 ~gates:700 );
        ("div", fun () -> Sbm_epfl.Epfl.generate ~scale:0.09375 Sbm_epfl.Epfl.Div);
      ]
  in
  List.iter2
    (fun (name, generate) (row, rows) ->
      Alcotest.(check string) "pinned row" name row;
      List.iter2
        (fun (max_leaves, max_divisors) (hash, gain, hash_z, gain_z) ->
          List.iter
            (fun (zero_gain, hash, gain) ->
              let label =
                Printf.sprintf "%s %d/%d%s" name max_leaves max_divisors
                  (if zero_gain then " -z" else "")
              in
              let aig = generate () in
              let got = Sbm_aig.Resub.run ~zero_gain ~max_leaves ~max_divisors aig in
              Alcotest.(check string) (label ^ ": hash")
                (Printf.sprintf "%016Lx" hash)
                (Printf.sprintf "%016Lx" (Aig.fold_hash aig));
              Alcotest.(check int) (label ^ ": gain") gain got)
            [ (false, hash, gain); (true, hash_z, gain_z) ])
        settings rows)
    circuits
    [
      ( "cavlc",
        [ (0x7afd1e8b85ee0e79L, 31, 0x1897663b4e427cc4L, 27);
          (0x9da83a147df86da0L, 33, 0x65532b10900ec6ffL, 22);
          (0x9da83a147df86da0L, 33, 0x83d7c85f0d123663L, 27);
          (0x4f1b66a947827630L, 33, 0xc6bdc99b0a676a1dL, 24);
          (0x0b77126bca25f3ebL, 18, 0x4f5aa471d768dd11L, 22);
          (0x7c7ec6cea7227c18L, 20, 0x59d2980f47dd20e4L, 26);
          (0x1d1f5684fbfc87d3L, 18, 0xfbf792719fed9469L, 18);
          (0x949b78178aeffb69L, 19, 0xd910bfbb81a412d3L, 15) ] );
      ( "ctrl",
        [ (0xfd4aee0df0617d60L, 20, 0x261665e9f35a84a1L, 34);
          (0x797d311cc514d2f8L, 21, 0x0ed2d52cf7cc43d7L, 37);
          (0x59e7d3e85137c04eL, 23, 0x0ed2d52cf7cc43d7L, 37);
          (0xcfd38096e83aabd9L, 21, 0x0ed2d52cf7cc43d7L, 37);
          (0xe8104f669d833a66L, 8, 0xc3706158f331eb1aL, 18);
          (0x0cb67a1afc94d601L, 15, 0x660427648c1692cdL, 15);
          (0x23b9acdd6c76e691L, 14, 0x1884bbe14296d2a9L, 21);
          (0xae9431563eda9d9dL, 15, 0x2d6da1b23d24b812L, 23) ] );
      ( "dec",
        [ (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0);
          (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0);
          (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0);
          (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0);
          (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0);
          (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0);
          (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0);
          (0x8d3f7eecf5ba578cL, 0, 0x8d3f7eecf5ba578cL, 0) ] );
      ( "int2float",
        [ (0x915a35b40e4a22aeL, 30, 0x382a23a81af0f95eL, 30);
          (0x1a39bdbdc452e078L, 26, 0xd8eddf5e56ffec83L, 31);
          (0x0d0f54c88ab6cfd1L, 27, 0xe279e100a19086aeL, 25);
          (0xd1b103faa4380efeL, 29, 0x739db3286145082dL, 31);
          (0xb067ca9eaa81c55dL, 8, 0xfa8168b242b7e9beL, 8);
          (0xd67928c331a00a1aL, 9, 0x192641b19cc85119L, 9);
          (0x3818ed58b0a0b847L, 11, 0x1549463088cebd29L, 11);
          (0x31375a0c7913bc03L, 12, 0xb97207e487ea0dd2L, 14) ] );
      ( "router",
        [ (0x2dfcadd59c622e51L, 1, 0xab9dcd4af152b645L, 1);
          (0x2dfcadd59c622e51L, 1, 0xab9dcd4af152b645L, 1);
          (0x2dfcadd59c622e51L, 1, 0xab9dcd4af152b645L, 1);
          (0x2dfcadd59c622e51L, 1, 0xab9dcd4af152b645L, 1);
          (0x2dfcadd59c622e51L, 1, 0xd3356938246de6e1L, 1);
          (0x2dfcadd59c622e51L, 1, 0xd3356938246de6e1L, 1);
          (0x2dfcadd59c622e51L, 1, 0xea02a03131248e38L, 1);
          (0x2dfcadd59c622e51L, 1, 0xea02a03131248e38L, 1) ] );
      ( "control-3e3e",
        [ (0x4bfbb3575e9b4d2bL, 0, 0x3c5be6a0d086183eL, 0);
          (0x4bfbb3575e9b4d2bL, 0, 0x3c5be6a0d086183eL, 0);
          (0x4bfbb3575e9b4d2bL, 0, 0xb1ab45442528d9c9L, 0);
          (0x4bfbb3575e9b4d2bL, 0, 0xb1ab45442528d9c9L, 0);
          (0x4bfbb3575e9b4d2bL, 0, 0x3cf725873d903cc5L, 0);
          (0x4bfbb3575e9b4d2bL, 0, 0x0e64bfb7a14ee825L, 0);
          (0x4bfbb3575e9b4d2bL, 0, 0x0ff51a532f6811b4L, 0);
          (0x4bfbb3575e9b4d2bL, 0, 0xbdda182d297283dfL, 0) ] );
      ( "div",
        [ (0xfac2f6e0d7c6993dL, 80, 0xeec13bb99468c2d3L, 81);
          (0x921483f57b1de3b5L, 129, 0x9080906eee5836eaL, 131);
          (0x30e1ec37d2e89665L, 102, 0x995cee44926fcbd4L, 100);
          (0x172a1457c77e9994L, 106, 0x9f47fec9fcd9c98bL, 102);
          (0xd3dcbdcea8721337L, 24, 0x04f1f112bdc4facfL, 24);
          (0x707ad9bd160b903eL, 41, 0x7e9b51c64586b916L, 43);
          (0xddfde22789f884acL, 51, 0x838846b96fb76d8dL, 50);
          (0x3daab686d6747c14L, 65, 0xd9513efe5165e732L, 60) ] );
    ]

(* The list-free fanout walk visits what [fanout_nodes] lists, in its
   order, on fresh random AIGs and after rewrite and resub have left
   dead nodes and stale fanout entries behind. *)
let test_iter_fanout_nodes =
  Helpers.qcheck_case ~count:30 "iter_fanout_nodes walks the fanout_nodes list"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let aig = Helpers.random_xor_aig ~inputs:7 ~gates:30 ~outputs:4 (Rng.create seed) in
      let agrees () =
        List.for_all
          (fun v ->
            let seen = ref [] in
            Aig.iter_fanout_nodes aig v (fun fo -> seen := fo :: !seen);
            List.rev !seen = Aig.fanout_nodes aig v)
          (List.init (Aig.num_nodes aig) Fun.id)
      in
      let fresh = agrees () in
      ignore (Sbm_aig.Rewrite.run aig);
      let rewritten = agrees () in
      ignore (Sbm_aig.Resub.run aig);
      fresh && rewritten && agrees ())

let suite =
  suite
  @ [
      test_tfo_mark_agrees_with_in_tfi;
      Alcotest.test_case "resub keeps its quick-set hashes" `Quick
        test_resub_quick_set_hashes;
      Alcotest.test_case "resub keeps its hashes where fuel runs out" `Quick
        test_resub_fuel_pins;
      test_iter_fanout_nodes;
      Alcotest.test_case "refactor and rewrite keep their hashes" `Quick
        test_resynthesis_hashes;
    ]
