(** Resynthesis of truth tables into AIG structure.

    The structural back-end of rewriting, refactoring and of the
    BDD-merging step of the Boolean-difference engine ("the node is
    implemented as an AIG obtained using structural hashing", paper
    Section III-C). The decomposition search is memoized and explores,
    per top variable, Shannon expansion, XOR factoring and the
    degenerate single-cofactor cases, keeping the cheapest. *)

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

(** [of_sop aig cubes ~nvars leaves] builds two-level logic for an SOP
    cover (used when an ISOP cover is already available). *)
val of_sop : Aig.t -> Sbm_truthtable.Tt.cube list -> nvars:int -> Aig.lit array -> Aig.lit
