(* The partition driver (contract in the .mli). The parallel path
   analyzes a chunk ahead of the sequential loop; the chunk boundary is
   a barrier, so every snapshot in a chunk sees all edits applied by
   earlier chunks, and within a chunk [dirty] marks analyses made stale
   by an earlier partition's committed edit. *)

module M = Sbm_obs.Metrics
module Watchdog = Sbm_obs.Watchdog

let m_partitions_skipped =
  M.counter ~engine:"watchdog" ~unit_:"partitions"
    "watchdog.partitions_skipped"
    "partitions skipped at their boundary under a pending watchdog abort"

let each parts f =
  let skipped = ref 0 in
  List.iteri
    (fun i p ->
      Sbm_obs.poll ();
      if Watchdog.abort_requested () then incr skipped else f i p)
    parts;
  if !skipped > 0 then M.add m_partitions_skipped !skipped

let partitions parts ~analyze ~clean ~merge ~redo =
  let jobs = Jobs.get () in
  let n = List.length parts in
  if jobs <= 1 || n <= 1 then each parts (fun i p -> ignore (redo i p))
  else begin
    let arr = Array.of_list parts in
    let analyze i =
      if Watchdog.abort_requested () then None
      else Some (Sbm_obs.capture (fun () -> analyze i arr.(i)))
    in
    (* The analyses of partitions [base, base + length results). *)
    let base = ref 0 and results = ref [||] and dirty = ref false in
    each parts (fun i p ->
        if i >= !base + Array.length !results then begin
          base := i;
          results :=
            Pool.run (Pool.global ()) (min (2 * jobs) (n - i)) (fun k ->
                analyze (i + k));
          dirty := false
        end;
        let k = i - !base in
        let result = !results.(k) in
        (* Dropped as it is applied, so no analysis outlives its merge
           and the next chunk runs beside none of them. *)
        !results.(k) <- None;
        match result with
        | Some (r, shard) when (not !dirty) && clean r ->
          (* Replay first: the engine's merge records the
             merge-boundary fingerprint, which reads the registry. *)
          Sbm_obs.replay shard;
          merge i p r
        | Some _ | None -> if redo i p then dirty := true)
  end
