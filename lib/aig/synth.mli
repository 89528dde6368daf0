(** Resynthesis of truth tables into AIG structure.

    The structural back-end of rewriting and refactoring (the paper's
    resynthesis script, Section V-A), which the gradient engine's
    refactor moves reuse. The decomposition search explores, per top
    variable, Shannon expansion, XOR factoring and the degenerate
    single-cofactor cases, keeping the cheapest; each sub-function is
    searched over its own support.

    The search's answer for every function of at most 4 inputs (all
    of rewrite's cut functions) is read from one read-only table that
    the build fills, by running the search once
    ({!Sbm_synth_search.Synth_search}): 65 814 slots of 16 bits,
    131 KB, compiled in as a string literal and shared by all
    domains. A function of 5 or more inputs (refactor's
    wider windows) is searched per call, memoized for that call. *)

(** AND nodes per 2-input XOR, the cost the decomposition search
    charges an XOR factor; technology-dependent (paper Section III-C).
    The Boolean-difference engine charges the same cost for the XOR
    that re-derives [f] from its difference. *)
val xor_cost : int

(** [of_tt aig tt leaves] builds (or reuses, through the strash table)
    logic computing [tt] where variable [i] of [tt] is driven by
    literal [leaves.(i)]. Returns the root literal. The constructed
    cone is dangling: the caller either commits it with
    {!Aig.replace}/{!Aig.add_output} or discards it with
    {!Aig.delete_dangling}. *)
val of_tt : Aig.t -> Sbm_truthtable.Tt.t -> Aig.lit array -> Aig.lit

(** [cost_of_tt tt] is the number of AND nodes the decomposition would
    use, ignoring sharing with existing logic (an upper bound on the
    real cost). *)
val cost_of_tt : Sbm_truthtable.Tt.t -> int
