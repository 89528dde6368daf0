(* SOP network view: AIG round-trips, elimination and extraction
   preserve function. *)

module Aig = Sbm_aig.Aig
module Network = Sbm_sop.Network
module Rng = Sbm_util.Rng

let assert_network_matches_aig aig net =
  let n = Aig.num_inputs aig in
  assert (n <= 10);
  for m = 0 to min ((1 lsl n) - 1) 4095 do
    let bits = Array.init n (fun i -> (m lsr i) land 1 = 1) in
    let oa = Sbm_aig.Sim.eval aig bits in
    let on = Network.eval net bits in
    if oa <> on then Alcotest.failf "network differs from AIG on minterm %d" m
  done

let test_roundtrip () =
  let rng = Rng.create 31 in
  for _ = 1 to 10 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let net = Network.of_aig aig in
    Network.check net;
    assert_network_matches_aig aig net;
    let back = Network.to_aig net in
    Aig.check back;
    Helpers.assert_equiv_exhaustive ~msg:"aig -> network -> aig" aig back
  done

let test_eliminate_preserves () =
  let rng = Rng.create 32 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:35 ~outputs:4 rng in
    let net = Network.of_aig aig in
    List.iter
      (fun threshold ->
        ignore (Network.eliminate net ~threshold ~max_cubes:64 ()))
      [ -1; 5; 50 ];
    Network.check net;
    assert_network_matches_aig aig net
  done

let test_extract_preserves () =
  let rng = Rng.create 33 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:35 ~outputs:4 rng in
    let net = Network.of_aig aig in
    ignore (Network.eliminate net ~threshold:20 ~max_cubes:64 ());
    ignore (Network.extract_kernels net ~max_passes:10 ());
    ignore (Network.extract_cubes net ~max_passes:10 ());
    Network.check net;
    assert_network_matches_aig aig net
  done

let test_eliminate_reduces_nodes () =
  (* A chain of single-fanout nodes should collapse entirely. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let d = Aig.add_input aig in
  let x = Aig.band aig a b in
  let y = Aig.band aig x c in
  let z = Aig.band aig y d in
  ignore (Aig.add_output aig z);
  let net = Network.of_aig aig in
  let before = Network.num_internal net in
  ignore (Network.eliminate net ~threshold:10 ~max_cubes:64 ());
  Network.check net;
  Alcotest.(check bool)
    (Printf.sprintf "fewer nodes (%d before)" before)
    true
    (Network.num_internal net < before);
  assert_network_matches_aig aig net

let test_kernel_extraction_shares () =
  (* f1 = (a+b)c, f2 = (a+b)d: extraction should share (a+b). *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  let d = Aig.add_input aig in
  let ab1 = Aig.bor aig a b in
  ignore
    (Aig.add_output aig (Aig.band aig ab1 c));
  ignore (Aig.add_output aig (Aig.band aig ab1 d));
  let net = Network.of_aig aig in
  (* Collapse everything into two big SOPs first. *)
  ignore (Network.eliminate net ~threshold:100 ~max_cubes:64 ());
  let lits_flat = Network.num_lits net in
  ignore (Network.extract_kernels net ~max_passes:5 ());
  Network.check net;
  assert_network_matches_aig aig net;
  Alcotest.(check bool)
    (Printf.sprintf "literals reduced from %d" lits_flat)
    true
    (Network.num_lits net <= lits_flat)

let test_snapshot_rollback () =
  let rng = Rng.create 34 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
  let net = Network.of_aig aig in
  let mark = Network.mark net in
  let saved =
    List.map (fun n -> (n, Network.cover net n)) (Network.internal_nodes net)
  in
  ignore (Network.eliminate net ~threshold:100 ~max_cubes:64 ());
  ignore (Network.extract_kernels net ~max_passes:5 ());
  (* The trial's nodes are still referenced: handing their ids back
     now would let restored covers name the next allocated nodes. *)
  (match Network.truncate net mark with
  | () -> Alcotest.fail "truncate accepted referenced nodes"
  | exception Invalid_argument _ -> ());
  (* Roll back the way the heterogeneous engine does: restore the
     covers first, then hand the trial's ids back. *)
  List.iter
    (fun (n, cv) ->
      Network.revive net n;
      Network.set_cover net n cv)
    saved;
  Network.truncate net mark;
  Network.check net;
  assert_network_matches_aig aig net

(* A threshold trial run and rolled back the way the heterogeneous
   engine does it, on a random partition: the same threshold gives the
   same network again, node ids included, and so does every threshold
   up to the least variation the trial's elimination kept. *)
let test_trial_exactness =
  Helpers.qcheck_case "threshold trials: reproducible, repeated up to the least kept variation"
    ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
      let net = Network.of_aig aig in
      let partition = Hashtbl.create 32 in
      List.iter
        (fun n -> if Rng.int rng 3 > 0 then Hashtbl.replace partition n ())
        (Network.internal_nodes net);
      let mark = Network.mark net in
      let only n = n >= mark || Hashtbl.mem partition n in
      let saved = List.map (fun n -> (n, Network.cover net n)) (Network.internal_nodes net) in
      (* The trial's network: digest, literal count and every reachable
         cover with its node id. *)
      let trial threshold =
        let least_kept = Network.eliminate net ~threshold ~max_cubes:64 ~only () in
        ignore (Network.extract_kernels net ~only ~max_passes:5 ());
        ignore (Network.extract_cubes net ~only ~max_passes:5 ());
        Network.check net;
        assert_network_matches_aig aig net;
        let result =
          ( Network.fold_hash net,
            Network.num_lits net,
            List.map (fun n -> (n, Network.cover net n)) (Network.internal_nodes net) )
        in
        List.iter
          (fun (n, cv) ->
            Network.revive net n;
            Network.set_cover net n cv)
          saved;
        Network.truncate net mark;
        Network.check net;
        (result, least_kept)
      in
      let threshold = [| -1; 2; 5; 20; 50; 100 |].(Rng.int rng 6) in
      let result, least_kept = trial threshold in
      let repeats =
        List.sort_uniq compare
          ([ threshold; threshold + 1; min least_kept (threshold + 1000) ]
          @ List.filter (fun t -> t > threshold && t <= least_kept) [ 2; 5; 20; 50; 100; 200; 300 ])
      in
      List.for_all
        (fun t ->
          t > least_kept
          ||
          let result', least_kept' = trial t in
          if result' <> result then QCheck2.Test.fail_reportf "threshold %d differs from %d" t threshold;
          least_kept' = least_kept)
        repeats)

(* Random edit scripts. After every step the maintained fanout
   structure must match a from-scratch recomputation ([check]) and the
   function must be preserved. *)
let random_step rng net =
  let internal = Array.of_list (Network.internal_nodes net) in
  let only =
    let keep = Hashtbl.create 16 in
    Array.iter (fun n -> if Rng.int rng 3 > 0 then Hashtbl.replace keep n ()) internal;
    if Rng.bool rng then fun _ -> true else fun n -> Hashtbl.mem keep n
  in
  match Rng.int rng 4 with
  | 0 ->
    let threshold = [| -1; 2; 5; 20; 100 |].(Rng.int rng 5) in
    ignore (Network.eliminate net ~threshold ~max_cubes:(8 + Rng.int rng 60) ~only ())
  | 1 -> ignore (Network.extract_kernels net ~only ~max_passes:(1 + Rng.int rng 5) ())
  | 2 -> ignore (Network.extract_cubes net ~only ~max_passes:(1 + Rng.int rng 5) ())
  | _ ->
    (* A trial rolled back the way the heterogeneous engine does it. *)
    let mark = Network.mark net in
    let saved = List.map (fun n -> (n, Network.cover net n)) (Network.internal_nodes net) in
    ignore (Network.eliminate net ~threshold:50 ~max_cubes:64 ());
    ignore (Network.extract_kernels net ~max_passes:3 ());
    ignore (Network.extract_cubes net ~max_passes:3 ());
    Network.check net;
    List.iter
      (fun (n, cv) ->
        Network.revive net n;
        Network.set_cover net n cv)
      saved;
    Network.truncate net mark

let test_incremental_fanouts () =
  let rng = Rng.create 35 in
  for _ = 1 to 12 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:5 rng in
    let net = Network.of_aig aig in
    Network.check net;
    for _ = 1 to 6 do
      random_step rng net;
      Network.check net;
      assert_network_matches_aig aig net
    done
  done

let test_fanouts_query () =
  (* fanouts = the reachable nodes whose cover mentions the node. *)
  let rng = Rng.create 36 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:3 rng in
  let net = Network.of_aig aig in
  ignore (Network.eliminate net ~threshold:5 ~max_cubes:64 ());
  ignore (Network.extract_kernels net ~max_passes:4 ());
  let live = Network.internal_nodes net in
  List.iter
    (fun n ->
      let expected =
        List.filter
          (fun m ->
            m <> n
            && List.exists
                 (fun c -> Array.exists (fun l -> Sbm_sop.Sop.var_of l = n) c)
                 (Network.cover net m))
          live
      in
      Alcotest.(check (list int))
        (Printf.sprintf "fanouts of %d" n)
        expected
        (List.sort compare (Network.fanouts net n)))
    live

(* Pinned exactness: the heterogeneous engine's result on a control
   circuit, recorded before the fanout structure became incremental.
   Any change of elimination or extraction order shows here. *)
let test_kernel_pinned () =
  let module HK = Sbm_core.Hetero_kernel in
  let aig =
    Sbm_core.Flow.baseline
      (Sbm_epfl.Epfl.random_control ~seed:0x3E3E ~inputs:105 ~outputs:105 ~gates:700)
  in
  List.iter
    (fun jobs ->
      Helpers.with_jobs jobs (fun () ->
          let out, totals = Helpers.with_totals (fun _ -> HK.run aig) in
          let count = Helpers.count totals in
          let lits_before = Network.num_lits (Network.of_aig aig) in
          let msg what = Printf.sprintf "jobs %d: %s" jobs what in
          Alcotest.(check int64) (msg "fold_hash") 0x5c21d6cdfa47ff1L (Aig.fold_hash out);
          Alcotest.(check (list int))
            (msg "partitions, trials, improved, lits before/after")
            [ 5; 40; 5; 914; 788 ]
            [ count "kernel.partitions"; count "kernel.trials";
              count "kernel.improved_partitions"; lits_before;
              lits_before - count "kernel.lits_saved" ]))
    [ 1; 2 ]

(* Pinned exactness on the ten bench/perf circuits: the engine's AIG
   after the baseline script, at the partition sizes the flow uses
   (100 in the hetero-kernel pass, 60 in the gradient's move),
   recorded before rollback handed node ids back and before repeated
   threshold trials were skipped. *)
let test_kernel_pinned_perf () =
  let module HK = Sbm_core.Hetero_kernel in
  let module Epfl = Sbm_epfl.Epfl in
  let control seed () = Epfl.random_control ~seed ~inputs:105 ~outputs:105 ~gates:700 in
  List.iter
    (fun (name, gen, h100, h60) ->
      let aig = Sbm_core.Flow.baseline (gen ()) in
      List.iter
        (fun (size, want) ->
          Alcotest.(check int64)
            (Printf.sprintf "%s, partition size %d" name size)
            want
            (Aig.fold_hash (HK.run ~config:{ HK.partition_size = size } aig)))
        [ (100, h100); (60, h60) ])
    [
      ("cavlc", (fun () -> Epfl.generate Epfl.Cavlc), 0x23f3ca3dcf26abcL, 0x630c443bfd9331f5L);
      ("ctrl", (fun () -> Epfl.generate Epfl.Ctrl), 0xf688fd1822bd5228L, 0xf688fd1822bd5228L);
      ("dec", (fun () -> Epfl.generate Epfl.Dec), 0xd6929351521f4b91L, 0x8d3f7eecf5ba578cL);
      ( "int2float", (fun () -> Epfl.generate Epfl.Int2float), 0xc7fc22d2a1c9063fL,
        0x5129ba31ba63d359L );
      ("router", (fun () -> Epfl.generate Epfl.Router), 0xdcefb534ac1b50dcL, 0xe42ac0da3d6494a6L);
      ("control-3e3e", control 0x3E3E, 0x5c21d6cdfa47ff1L, 0xf44cfc5d6405e63bL);
      ("control-3e3f", control 0x3E3F, 0xbe84db39ecbeda5L, 0x3328149589e3296fL);
      ( "div", (fun () -> Epfl.generate ~scale:0.09375 Epfl.Div), 0x738863a50f7ceea6L,
        0x4812b768d2679a83L );
      ( "sqrt", (fun () -> Epfl.generate ~scale:0.0625 Epfl.Sqrt), 0xea83857b8a3b2a2aL,
        0xea83857b8a3b2a2aL );
      ("sin", (fun () -> Epfl.generate ~scale:0.25 Epfl.Sin), 0xff9b2b6d71afb208L, 0x9fb27c213e9a16b0L);
    ]

(* Pinned exactness of the homogeneous engine, which runs elimination,
   kernel and cube extraction over the whole network (no [only]
   filter): fold hashes after the baseline script at thresholds -1, 5
   and 50, recorded before kernel and cube extraction stopped walking
   the network in DFS order for every pass. *)
let test_homogeneous_pinned_perf () =
  let module HK = Sbm_core.Hetero_kernel in
  let module Epfl = Sbm_epfl.Epfl in
  let control seed () = Epfl.random_control ~seed ~inputs:105 ~outputs:105 ~gates:700 in
  List.iter
    (fun (name, gen, want) ->
      let aig = Sbm_core.Flow.baseline (gen ()) in
      List.iter2
        (fun threshold want ->
          Alcotest.(check int64)
            (Printf.sprintf "%s, threshold %d" name threshold)
            want
            (Aig.fold_hash (HK.run_homogeneous ~threshold aig)))
        [ -1; 5; 50 ] want)
    [
      ( "cavlc", (fun () -> Epfl.generate Epfl.Cavlc),
        [ 0xa7c74f2d993bec1dL; 0x35b0c89402b30323L; 0x339311ef3f19284cL ] );
      ( "ctrl", (fun () -> Epfl.generate Epfl.Ctrl),
        [ 0x520c4c0a63f6a767L; 0xfbc68dfbe2ed9a8bL; 0x9ecc7b3470b20709L ] );
      ( "dec", (fun () -> Epfl.generate Epfl.Dec),
        [ 0x8d3f7eecf5ba578cL; 0x929ed86d3879dbfdL; 0x97e81b82eec45f39L ] );
      ( "int2float", (fun () -> Epfl.generate Epfl.Int2float),
        [ 0x62c803519bb3927aL; 0x24b42d0720970932L; 0x606bfe0f7c5940c6L ] );
      ( "router", (fun () -> Epfl.generate Epfl.Router),
        [ 0xcc17ccbca841331dL; 0x7c4a9bbf6f3fced6L; 0x9613455256f9e76L ] );
      ( "control-3e3e", control 0x3E3E,
        [ 0x16c046d9a919e6c3L; 0x662653269cca10a1L; 0x364c04ea95f428daL ] );
      ( "control-3e3f", control 0x3E3F,
        [ 0x28316712a9e7b6c7L; 0x70b066333473e9b7L; 0x36037911e37dd28fL ] );
      ( "div", (fun () -> Epfl.generate ~scale:0.09375 Epfl.Div),
        [ 0xd175e0cc54f3dac4L; 0x2302d6fa4f9e3cd9L; 0xb09a239418d6294bL ] );
      ( "sqrt", (fun () -> Epfl.generate ~scale:0.0625 Epfl.Sqrt),
        [ 0xe03dbe247bd4b630L; 0x5b66b9ed8c3eed89L; 0xc8af04b81e4beb86L ] );
      ( "sin", (fun () -> Epfl.generate ~scale:0.25 Epfl.Sin),
        [ 0x11c893868eba7f90L; 0x997875c5de462b7L; 0x17daa03660f93ea1L ] );
    ]

let suite =
  [
    Alcotest.test_case "aig round-trip" `Quick test_roundtrip;
    Alcotest.test_case "eliminate preserves function" `Quick test_eliminate_preserves;
    Alcotest.test_case "extraction preserves function" `Quick test_extract_preserves;
    Alcotest.test_case "eliminate collapses chains" `Quick test_eliminate_reduces_nodes;
    Alcotest.test_case "kernel extraction shares logic" `Quick test_kernel_extraction_shares;
    Alcotest.test_case "snapshot rollback" `Quick test_snapshot_rollback;
    test_trial_exactness;
    Alcotest.test_case "incremental fanouts under random edit scripts" `Quick
      test_incremental_fanouts;
    Alcotest.test_case "fanouts query" `Quick test_fanouts_query;
    Alcotest.test_case "hetero-kernel pinned result at jobs 1 and 2" `Quick
      test_kernel_pinned;
    Alcotest.test_case "hetero-kernel pinned results on the bench/perf circuits" `Quick
      test_kernel_pinned_perf;
    Alcotest.test_case "homogeneous engine pinned results on the bench/perf circuits" `Quick
      test_homogeneous_pinned_perf;
  ]
