module Aig = Sbm_aig.Aig
module Network = Sbm_sop.Network
module Sop = Sbm_sop.Sop
module M = Sbm_obs.Metrics

let m_partitions =
  M.counter ~engine:"kernel" ~unit_:"partitions" "kernel.partitions"
    "SOP partitions the heterogeneous-kernel engine processed"

let m_trials =
  M.counter ~engine:"kernel" ~unit_:"trials" "kernel.trials"
    "elimination thresholds decided (run, or known to repeat the previous trial)"

let m_improved_partitions =
  M.counter ~engine:"kernel" ~unit_:"partitions" "kernel.improved_partitions"
    "partitions whose best trial reduced literal count"

let m_lits_saved =
  M.counter ~engine:"kernel" ~unit_:"literals" "kernel.lits_saved"
    "SOP literals saved by committed kernel extractions"

type config = { partition_size : int }

let default_config = { partition_size = 100 }

(* The paper's empirical elimination thresholds (Section IV-B). *)
let thresholds = [ -1; 2; 5; 20; 50; 100; 200; 300 ]

(* SOP explosion guard during collapsing. *)
let max_cubes = 64

(* Kernel and cube extraction passes per trial. *)
let extract_passes = 20

(* Literal count restricted to a node set plus nodes created after a
   mark. *)
let partition_lits net ~member ~mark =
  List.fold_left
    (fun acc n ->
      if member n || n >= mark then acc + Sop.num_lits (Network.cover net n) else acc)
    0
    (Network.internal_nodes net)

(* One partition's threshold trials on the live network. Returns
   whether the best trial improved (and was committed). *)
let optimize_partition net part_nodes =
  (* Membership is an array over the ids below the mark: every member
     is below it, and every node a trial creates is at or past it. *)
  let mark = Network.mark net in
  let is_member = Array.make mark false in
  List.iter (fun n -> is_member.(n) <- true) part_nodes;
  let member n = n < mark && is_member.(n) in
  let in_trial n = n >= mark || is_member.(n) in
  (* A node may be eliminated only when its fanouts at partition start
     stay inside the partition (so rollbacks touch member covers only);
     nodes created by the trials are always eligible. *)
  let inside = Array.make mark false in
  List.iter
    (fun n -> if List.for_all member (Network.fanouts net n) then inside.(n) <- true)
    part_nodes;
  let eliminable n = n >= mark || inside.(n) in
  let saved =
    List.filter_map
      (fun n -> if member n then Some (n, Network.cover net n) else None)
      (Network.internal_nodes net)
  in
  let rollback () =
    List.iter
      (fun (n, cv) ->
        Network.revive net n;
        Network.set_cover net n cv)
      saved;
    Network.truncate net mark
  in
  (* A trial's literal count and the least variation its elimination
     kept. Every trial starts from the same covers and, since rollback
     hands the trial's node ids back, allocates the same ids: its
     result depends on the threshold alone. *)
  let trial threshold =
    let least_kept = Network.eliminate net ~threshold ~max_cubes ~only:eliminable () in
    ignore (Network.extract_kernels net ~only:in_trial ~max_passes:extract_passes ());
    ignore (Network.extract_cubes net ~only:in_trial ~max_passes:extract_passes ());
    (partition_lits net ~member ~mark, least_kept)
  in
  let before = partition_lits net ~member ~mark in
  (* Try each threshold, recording the literal count; keep the best
     (the first with the least count). A threshold no larger than the
     previous trial's least kept variation collapses exactly the nodes
     that trial collapsed, so it would repeat that trial (the same
     literal count and the same least kept variation) and is not run.
     The best trial so far is recorded, since it is reproducible, and
     replayed at the end instead of re-run; the last trial run stays on
     the network when it is the best. *)
  let rec trials best = function
    | [] -> best
    | threshold :: rest ->
      let lits, least_kept = trial threshold in
      let rec drop = function t :: rest when t <= least_kept -> drop rest | rest -> rest in
      let rest = drop rest in
      let is_best = match best with Some (bl, _) -> lits < bl | None -> true in
      if is_best && rest = [] then Some (lits, None)
      else begin
        let best =
          if is_best then Some (lits, Some (Network.record_trial net (List.map fst saved) ~mark))
          else best
        in
        rollback ();
        trials best rest
      end
  in
  let improved =
    match trials None thresholds with
    | Some (lits, kept) when lits < before ->
      Option.iter (Network.replay_trial net) kept;
      true
    | Some (_, None) ->
      rollback ();
      false
    | Some (_, Some _) | None -> false
  in
  M.add m_trials (List.length thresholds);
  M.add m_improved_partitions (if improved then 1 else 0);
  improved

(* Chunk the internal nodes into partitions of bounded size. *)
let partitions_of net size =
  let nodes = Network.internal_nodes net in
  let rec chunk acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n >= size then chunk (List.rev cur :: acc) [ x ] 1 rest
      else chunk acc (x :: cur) (n + 1) rest
  in
  chunk [] [] 0 nodes

(* Origin for logic created inside the SOP domain: the ambient tag if
   a flow/gradient script already set one, the engine's own otherwise
   (standalone use). *)
let fallback_origin aig =
  let ambient = Aig.current_origin aig in
  if ambient.Aig.Origin.kind = Aig.Origin.Seed then
    Aig.Origin.make ~pass:"hetero-kernel" Aig.Origin.Kernel
  else ambient

let run ?(config = default_config) aig =
  let fallback = fallback_origin aig in
  let net = Network.of_aig aig in
  let lits_before = Network.num_lits net in
  let parts = partitions_of net config.partition_size in
  M.add m_partitions (List.length parts);
  (* Partitions run in index order on the live network. This engine
     operates on the SOP network, so the trail's structure component
     is the network-side digest. *)
  Sbm_par.Sched.each parts (fun idx part ->
      let improved = optimize_partition net part in
      Sbm_obs.partition_done ~engine:"kernel" ~index:idx
        ~structure:(fun () -> Network.fold_hash net)
        [ ("members", List.length part); ("trials", List.length thresholds);
          ("improved", if improved then 1 else 0) ]);
  M.add m_lits_saved (lits_before - Network.num_lits net);
  Network.to_aig ~provenance:(aig, fallback) net

let run_homogeneous ~threshold aig =
  let fallback = fallback_origin aig in
  let net = Network.of_aig aig in
  ignore (Network.eliminate net ~threshold ~max_cubes ());
  ignore (Network.extract_kernels net ~max_passes:extract_passes ());
  ignore (Network.extract_cubes net ~max_passes:extract_passes ());
  Network.to_aig ~provenance:(aig, fallback) net
