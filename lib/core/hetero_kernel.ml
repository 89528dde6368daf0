module Aig = Sbm_aig.Aig
module Network = Sbm_sop.Network
module Sop = Sbm_sop.Sop
module FR = Sbm_obs.Flight_recorder
module M = Sbm_obs.Metrics

let m_partitions =
  M.counter ~engine:"kernel" ~unit_:"partitions" "kernel.partitions"
    "SOP partitions the heterogeneous-kernel engine processed"

let m_trials =
  M.counter ~engine:"kernel" ~unit_:"trials" "kernel.trials"
    "kernel-extraction threshold trials run"

let m_improved_partitions =
  M.counter ~engine:"kernel" ~unit_:"partitions" "kernel.improved_partitions"
    "partitions whose best trial reduced literal count"

let m_lits_saved =
  M.counter ~engine:"kernel" ~unit_:"literals" "kernel.lits_saved"
    "SOP literals saved by committed kernel extractions"

type config = {
  thresholds : int list;
  partition_size : int;
  max_cubes : int;
  extract_passes : int;
  prefilter : Prefilter.bank option;
}

let default_config =
  {
    thresholds = [ -1; 2; 5; 20; 50; 100; 200; 300 ];
    partition_size = 100;
    max_cubes = 64;
    extract_passes = 20;
    prefilter = None;
  }

type stats = {
  partitions : int;
  trials : int; (** thresholds tried across all partitions *)
  improved_partitions : int; (** partitions that kept a better trial *)
  lits_before : int;
  lits_after : int;
}

(* Literal count restricted to a node set plus nodes created after a
   mark. *)
let partition_lits net ~member ~mark =
  List.fold_left
    (fun acc n ->
      if member n || n >= mark then acc + Sop.num_lits (Network.cover net n) else acc)
    0
    (Network.internal_nodes net)

let optimize_partition net config part_nodes =
  let member_set = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace member_set n ()) part_nodes;
  let member n = Hashtbl.mem member_set n in
  (* A node may be eliminated only when its fanouts at partition start
     stay inside the partition (so rollbacks touch member covers only);
     nodes created by the trials are always eligible. *)
  let mark = Network.mark net in
  let inside = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if List.for_all member (Network.fanouts net n) then Hashtbl.replace inside n ())
    part_nodes;
  let eliminable n = n >= mark || Hashtbl.mem inside n in
  let snapshot () =
    List.filter_map
      (fun n -> if member n then Some (n, Network.cover net n) else None)
      (Network.internal_nodes net)
  in
  let saved = snapshot () in
  let rollback () =
    List.iter
      (fun (n, cv) ->
        Network.revive net n;
        Network.set_cover net n cv)
      saved;
    Network.truncate net mark
  in
  let trial threshold =
    ignore
      (Network.eliminate net ~threshold ~max_cubes:config.max_cubes ~only:eliminable ());
    ignore
      (Network.extract_kernels net
         ~only:(fun n -> member n || n >= mark)
         ~max_passes:config.extract_passes ());
    ignore
      (Network.extract_cubes net
         ~only:(fun n -> member n || n >= mark)
         ~max_passes:config.extract_passes ());
    partition_lits net ~member ~mark
  in
  let before = partition_lits net ~member ~mark in
  (* Try each threshold, recording the literal count; keep the best. *)
  let best = ref None in
  List.iter
    (fun threshold ->
      let lits = trial threshold in
      (match !best with
      | Some (bl, _) when bl <= lits -> ()
      | Some _ | None -> best := Some (lits, threshold));
      rollback ())
    config.thresholds;
  let improved =
    match !best with
    | Some (lits, threshold) when lits < before ->
      ignore (trial threshold);
      true
    | Some _ | None -> false
  in
  (List.length config.thresholds, improved)

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

(* Observational signature census. Kernel trials accept on literal
   counts, not on a per-pair functional test, so there is no
   acceptance check for the prefilter to shadow soundly; instead the
   engine reports what the signatures see before the SOP round-trip —
   constant-signature nodes ([Reject_const]), nodes certified
   functionally distinct from everything scanned before them
   ([Reject_signature]) and potential functional duplicates
   ([Maybe], the survivors kernel extraction could share). Strictly
   QoR-neutral: nothing downstream consults the verdicts. *)
let signature_census store aig counters =
  let seen = Hashtbl.create 256 in
  for v = 1 to Aig.num_nodes aig - 1 do
    if Aig.is_and aig v && not (Aig.is_dead aig v) then begin
      let raw =
        Array.init (Prefilter.words store) (fun w -> Prefilter.value store v w)
      in
      let const =
        Array.for_all (fun w -> w = 0L) raw
        || Array.for_all (fun w -> w = -1L) raw
      in
      let key = Prefilter.canonical_of_words raw in
      let verdict =
        if const then Prefilter.Reject_const
        else if Hashtbl.mem seen key then Prefilter.Maybe
        else begin
          Hashtbl.replace seen key ();
          Prefilter.Reject_signature
        end
      in
      Prefilter.note counters verdict
    end
  done;
  if FR.enabled () then
    FR.record ~severity:FR.Debug ~engine:"kernel" ~id:"signature-census"
      ~metrics:
        [ ("duplicates", counters.Prefilter.survivors);
          ("distinct", counters.Prefilter.rejected_sig);
          ("constant", counters.Prefilter.rejected_const) ]
      "signature census"

let run ?(obs = Sbm_obs.null) ?(config = default_config) aig =
  let fallback = fallback_origin aig in
  let pf_counts = Prefilter.zero_counts () in
  (match config.prefilter with
  | None -> ()
  | Some bank ->
    let store = Prefilter.attach bank aig in
    signature_census store aig pf_counts);
  let net = Network.of_aig aig in
  let lits_before = Network.num_lits net in
  let parts = partitions_of net config.partition_size in
  let trials = ref 0 in
  let improved = ref 0 in
  let note idx part t i =
    trials := !trials + t;
    if i then incr improved;
    if FR.enabled () then
      FR.record ~severity:FR.Debug ~engine:"kernel"
        ~id:(Printf.sprintf "partition-%d" idx)
        ~metrics:
          [ ("members", List.length part); ("trials", t);
            ("improved", if i then 1 else 0) ]
        "partition done";
    (* Merge-boundary fingerprint: [note] runs on the main domain in
       ascending partition index in both paths. This engine operates
       on the SOP network, so the structure component is the
       network-side digest. *)
    if Sbm_obs.Fingerprint.enabled () then
      Sbm_obs.Fingerprint.record_merge ~engine:"kernel" ~partition:idx
        ~structure:(Network.fold_hash net)
  in
  (* Workers run the threshold trials on a private network copy. A
     partition whose best trial did not improve leaves the live
     network's covers untouched, so its verdict transfers verbatim;
     improved or stale partitions are redone on the live network. *)
  Sbm_par.Sched.partitions parts
    ~analyze:(fun _ part -> optimize_partition (Network.copy net) config part)
    ~clean:(fun (_, improved) -> not improved)
    ~merge:(fun idx part (t, _) -> note idx part t false)
    ~redo:(fun idx part ->
      let t, i = optimize_partition net config part in
      note idx part t i;
      i);
  let lits_after = Network.num_lits net in
  Sbm_obs.bump obs m_partitions (List.length parts);
  Sbm_obs.bump obs m_trials !trials;
  Sbm_obs.bump obs m_improved_partitions !improved;
  Sbm_obs.bump obs m_lits_saved (lits_before - lits_after);
  if config.prefilter <> None then Prefilter.flush obs pf_counts;
  ( Network.to_aig ~provenance:(aig, fallback) net,
    {
      partitions = List.length parts;
      trials = !trials;
      improved_partitions = !improved;
      lits_before;
      lits_after;
    } )

module Engine = struct
  let name = "kernel"
  let default_origin = Aig.Origin.make ~pass:"hetero-kernel" Aig.Origin.Kernel

  let config_of (c : Engine_intf.config) =
    {
      default_config with
      partition_size =
        Option.value c.Engine_intf.partition_nodes
          ~default:default_config.partition_size;
      prefilter = c.Engine_intf.prefilter;
    }

  let stats_of ~gain (s : stats) =
    {
      Engine_intf.gain;
      details =
        [ ("partitions", s.partitions); ("trials", s.trials);
          ("improved_partitions", s.improved_partitions);
          ("lits_saved", s.lits_before - s.lits_after) ];
    }

  let run (c : Engine_intf.config) aig =
    let aig', s = run ~obs:c.Engine_intf.obs ~config:(config_of c) aig in
    (aig', stats_of ~gain:(Aig.size aig - Aig.size aig') s)

  (* The SOP round-trip always rebuilds; "optimize" keeps the smaller
     of input and result, matching how flow scripts use the engine. *)
  let optimize (c : Engine_intf.config) aig =
    let aig', s = run c aig in
    if Aig.size aig' <= Aig.size aig then (aig', s)
    else (aig, { s with Engine_intf.gain = 0 })
end

let run_homogeneous ~threshold ?(config = default_config) aig =
  let fallback = fallback_origin aig in
  let net = Network.of_aig aig in
  ignore (Network.eliminate net ~threshold ~max_cubes:config.max_cubes ());
  ignore (Network.extract_kernels net ~max_passes:config.extract_passes ());
  ignore (Network.extract_cubes net ~max_passes:config.extract_passes ());
  Network.to_aig ~provenance:(aig, fallback) net
