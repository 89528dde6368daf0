(* The partition driver (contract in the .mli). The chunk boundary is
   a barrier, so every snapshot in a chunk sees all edits applied by
   earlier chunks; within a chunk, [dirty] marks analyses made stale
   by an earlier partition's committed edit. *)

module M = Sbm_obs.Metrics
module Watchdog = Sbm_obs.Watchdog

let m_partitions_skipped =
  M.counter ~engine:"watchdog" ~unit_:"partitions"
    "watchdog.partitions_skipped"
    "partitions skipped at their boundary under a pending watchdog abort"

let partitions parts ~analyze ~clean ~merge ~redo =
  let parts = Array.of_list parts in
  let n = Array.length parts in
  let jobs = Jobs.get () in
  let skipped = ref 0 in
  let skip () =
    Sbm_obs.poll ();
    let abort = Watchdog.abort_requested () in
    if abort then incr skipped;
    abort
  in
  if jobs <= 1 || n <= 1 then
    Array.iteri (fun i p -> if not (skip ()) then ignore (redo i p)) parts
  else begin
    let pool = Pool.global () in
    let analyze i =
      if Watchdog.abort_requested () then None
      else Some (Sbm_obs.capture (fun () -> analyze i parts.(i)))
    in
    let base = ref 0 in
    while !base < n do
      let b = !base in
      let count = min (2 * jobs) (n - b) in
      let results = Pool.run pool count (fun k -> analyze (b + k)) in
      let dirty = ref false in
      Array.iteri
        (fun k result ->
          let i = b + k in
          if not (skip ()) then
            match result with
            | Some (r, shard) when (not !dirty) && clean r ->
              (* Replay first: the engine's merge records the
                 merge-boundary fingerprint, which reads the registry. *)
              Sbm_obs.replay shard;
              merge i parts.(i) r
            | Some _ | None -> if redo i parts.(i) then dirty := true)
        results;
      base := b + count
    done
  end;
  if !skipped > 0 then M.add m_partitions_skipped !skipped
