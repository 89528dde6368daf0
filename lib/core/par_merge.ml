module Aig = Sbm_aig.Aig

(* Provenance bookkeeping for the parallel merge path of the AIG
   partition engines (diff, MSPF).

   A worker analyzing a partition on a private AIG snapshot still
   builds (and discards) speculative candidate cones, and the origin
   ledger counts those constructions. When the analysis is merged
   without a sequential redo, the live AIG never saw the speculation,
   so the worker's created-count deltas must be folded in explicitly —
   otherwise attribution shares would differ between job counts. *)

let created_delta ~before ~after =
  List.filter_map
    (fun (o, created) ->
      let prev = Option.value ~default:0 (List.assoc_opt o before) in
      if created > prev then Some (o, created - prev) else None)
    after

let merge_created aig deltas =
  List.iter (fun (o, n) -> Aig.note_created aig o n) deltas

(* A worker's analysis step: [analyze snap store] runs on a private
   copy of [aig] (with a fork of the prefilter store), and the copy's
   origin-created deltas come back beside its result for
   [merge_created]. *)
let on_snapshot aig store analyze =
  let snap = Aig.copy aig in
  let wstore = Option.map (fun st -> Prefilter.fork st snap) store in
  let before = Aig.created_counts snap in
  let r = analyze snap wstore in
  (r, created_delta ~before ~after:(Aig.created_counts snap))
