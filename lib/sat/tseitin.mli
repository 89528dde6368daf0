(** Tseitin encoding of AIGs into CNF. *)

(** [and_gate solver a b] is a fresh variable [x] constrained to
    [x <-> a & b] by the three AND-gate clauses. *)
val and_gate : Solver.t -> int -> int -> int

(** [differ solver a b] is a fresh variable [d] constrained to
    [d -> a <> b]: asserting [d] asks for an assignment on which the
    two literals differ (one output of a miter). *)
val differ : Solver.t -> int -> int -> int

(** [encode solver aig] adds one SAT variable per live AIG node and
    the AND-gate clauses. Returns the variable map indexed by node id
    (0 for dead nodes; the constant node is constrained to false). *)
val encode : Solver.t -> Sbm_aig.Aig.t -> int array

(** [lit_dimacs vars l] translates an AIG literal into the solver's
    DIMACS convention using the map returned by {!encode}. *)
val lit_dimacs : int array -> Sbm_aig.Aig.lit -> int

(** [model_inputs solver vars aig] reads the solver's model, after a
    [Sat] answer, back as a primary-input vector indexed by input
    position ([false] for inputs the encoding left out). *)
val model_inputs : Solver.t -> int array -> Sbm_aig.Aig.t -> bool array
