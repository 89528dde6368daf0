(** Refactoring: collapse-and-resynthesize of large cones.

    Implements the "collapse and Boolean decomposition, applied on
    reconvergent MFFC of the logic network" step of the paper's
    resynthesis script (Section V-A) and the "refactoring" move of the
    gradient engine. A reconvergence-driven cut of up to [max_leaves]
    inputs is computed for each node whose maximum fanout-free cone
    has at least two nodes, the cone function is collapsed into a
    truth table, and {!Synth} rebuilds it from scratch; the change is
    kept on positive exact gain (zero gain if requested). *)

(** [run ?zero_gain ?max_leaves aig] refactors every node once.
    [max_leaves] defaults to 10 (paper-scale windows); it is capped by
    {!Sbm_truthtable.Tt.max_vars}. Returns the total gain. *)
val run : ?zero_gain:bool -> ?max_leaves:int -> Aig.t -> int
