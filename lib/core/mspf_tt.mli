(** Truth-table MSPF (the paper's baseline, reference [1]).

    Section IV-C positions the BDD-based MSPF of {!Mspf} against "the
    truth table methods to approximate MSPF" of the prior Boolean
    resynthesis flow. This module implements that baseline: the same
    substitution loop ({!Mspf.substitute}), but with bit-packed truth
    tables as the reasoning engine, which caps windows at
    [Tt.max_vars - 1] leaves (the extra variable models the node under
    analysis). The ablation bench compares reach and QoR of the two
    engines. *)

type config = {
  limits : Sbm_partition.Partition.limits;
      (** [max_leaves] is clamped to [Tt.max_vars - 1] *)
  max_candidates : int;
}

val default_config : config

(** [run ?config aig] applies TT-based MSPF optimization in place and
    returns the total size gain. *)
val run : ?config:config -> Sbm_aig.Aig.t -> int
