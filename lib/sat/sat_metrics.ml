(* Registered metric handles for the SAT layer. Sweep and redundancy
   both flush the solver's global statistics, so the sat.* handles
   live here rather than in either client. *)

module M = Sbm_obs.Metrics

let conflicts =
  M.counter ~engine:"sat" "sat.conflicts" "CDCL conflicts across all queries"

let decisions =
  M.counter ~engine:"sat" "sat.decisions" "CDCL decisions across all queries"

let propagations =
  M.counter ~engine:"sat" "sat.propagations"
    "unit propagations across all queries"

let restarts =
  M.counter ~engine:"sat" "sat.restarts" "CDCL restarts across all queries"

let sweep_classes =
  M.counter ~engine:"sweep" ~unit_:"classes" "sweep.classes"
    "candidate equivalence classes formed by simulation"

let sweep_sat_calls =
  M.counter ~engine:"sweep" ~unit_:"calls" "sweep.sat_calls"
    "SAT equivalence queries issued by sweeping"

let sweep_merged =
  M.counter ~engine:"sweep" ~unit_:"nodes" "sweep.merged"
    "nodes merged into proven-equivalent representatives"

let redundancy_sat_calls =
  M.counter ~engine:"redundancy" ~unit_:"calls" "redundancy.sat_calls"
    "SAT redundancy queries issued"

let redundancy_tried =
  M.counter ~engine:"redundancy" ~unit_:"edges" "redundancy.tried"
    "fanin edges tested for redundancy"

let redundancy_removed =
  M.counter ~engine:"redundancy" ~unit_:"edges" "redundancy.removed"
    "redundant fanin edges removed"

let redundancy_sim_disproved =
  M.counter ~engine:"redundancy" ~unit_:"edges" "redundancy.sim_disproved"
    "redundancy candidates disproved by simulation, without a SAT call"
