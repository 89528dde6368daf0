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
  (* Roll back. *)
  Network.truncate net mark;
  List.iter
    (fun (n, cv) ->
      Network.revive net n;
      Network.set_cover net n cv)
    saved;
  Network.check net;
  assert_network_matches_aig aig net

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

let suite =
  [
    Alcotest.test_case "aig round-trip" `Quick test_roundtrip;
    Alcotest.test_case "eliminate preserves function" `Quick test_eliminate_preserves;
    Alcotest.test_case "extraction preserves function" `Quick test_extract_preserves;
    Alcotest.test_case "eliminate collapses chains" `Quick test_eliminate_reduces_nodes;
    Alcotest.test_case "kernel extraction shares logic" `Quick test_kernel_extraction_shares;
    Alcotest.test_case "snapshot rollback" `Quick test_snapshot_rollback;
    Alcotest.test_case "incremental fanouts under random edit scripts" `Quick
      test_incremental_fanouts;
    Alcotest.test_case "fanouts query" `Quick test_fanouts_query;
    Alcotest.test_case "hetero-kernel pinned result at jobs 1 and 2" `Quick
      test_kernel_pinned;
  ]
