(** SAT sweeping: merge functionally equivalent nodes.

    Random simulation partitions nodes into candidate equivalence
    classes by signature; candidate pairs are then proved or refuted
    with incremental SAT (assumption-based miters on a single CNF of
    the whole network). Proven pairs are merged with {!Sbm_aig.Aig.replace},
    later node into earlier node, which is always acyclic on a
    compacted (topologically numbered) AIG. This is the "SAT-based
    sweeping" step of the paper's resynthesis script (ref. [9]). *)

(** [run ?obs ?on_cex aig] returns the swept AIG (a fresh, compacted
    network) and the number of merged nodes. Signatures take
    {!Sbm_aig.Sim.default_words} simulation words; each miter query
    gets 1000 conflicts, and an undecided pair is not merged. [obs] receives the counters [sweep.classes],
    [sweep.sat_calls], [sweep.merged] and [sat.conflicts]/
    [sat.decisions]/[sat.propagations].

    [on_cex] receives the primary-input assignment of every [Sat]
    answer — a concrete pattern distinguishing a candidate pair the
    signatures could not. The simulation prefilter subscribes with
    {!Sbm_core.Prefilter.refine} so the same false positive never
    survives simulation again. Extraction is a model read only: it
    never changes the solver's behaviour or the sweep's decisions. *)
val run :
  ?obs:Sbm_obs.span ->
  ?on_cex:(bool array -> unit) ->
  Sbm_aig.Aig.t ->
  Sbm_aig.Aig.t * int
