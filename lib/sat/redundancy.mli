(** SAT-based redundancy removal (paper reference [9]).

    For selected AND nodes, tests whether replacing the node by one of
    its own fanins preserves all primary outputs (i.e. the other fanin
    is redundant under observability don't-cares). A candidate that
    changes an output on one of 256 seeded simulation patterns is
    rejected without a SAT call; the others get a SAT call on a miter
    between the original network and a copy with the node bypassed,
    and proven-redundant nodes are replaced. Simulation only rejects
    candidates the miter would not prove, so the result is the one the
    miters alone give. *)

(** [run ?max_candidates ?on_cex aig] tries candidates in
    topological order and returns the number of nodes bypassed. Each
    miter gets 1000 conflicts; an undecided candidate is kept. The AIG
    is modified in place. The run counts into the registry:
    [redundancy.tried], [redundancy.sim_disproved],
    [redundancy.sat_calls], [redundancy.removed] and [sat.conflicts]/
    [sat.decisions]/[sat.propagations]. [on_cex] receives the
    primary-input assignment that shows a candidate unsafe: the
    simulation pattern of every rejection and the model of every [Sat]
    answer. It feeds the simulation prefilter's pattern bank. *)
val run :
  ?max_candidates:int ->
  ?on_cex:(bool array -> unit) ->
  Sbm_aig.Aig.t ->
  int
