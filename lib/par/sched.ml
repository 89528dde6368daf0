(* The partition loop (contract in the .mli). *)

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
