(** Boolean-difference computation and implementation (paper Alg. 1).

    The Boolean difference of nodes [f] and [g] is
    [∂f/∂g = f xor g]; any [f] can be rewritten as [(∂f/∂g) xor g]
    (Section III-A). Given a partition context with precomputed BDDs,
    {!compute} builds — or finds — a compact implementation of the
    difference and returns the candidate literal for
    [boolean_diff = bdiff_node xor g], applying the size and saving
    filters of Alg. 1. *)

type config = {
  size_limit : int;
      (** Cap on the BDD size of the difference (Alg. 1 line 8);
          the paper found 10 a good QoR/runtime tradeoff. *)
}

val default_config : config

(** [compute ctx config ~f ~g] returns the candidate literal
    implementing [∂f/∂g xor g], or [None] when a filter rejects the
    pair (missing BDD, size cap, saving filter, BDD budget overrun).
    On [Some lit], the candidate may be freshly built and dangling:
    the caller commits it with {!Sbm_aig.Aig.replace} or discards it
    with {!Sbm_aig.Aig.delete_dangling}. *)
val compute : Bdd_bridge.t -> config -> f:int -> g:int -> Sbm_aig.Aig.lit option
