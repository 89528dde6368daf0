(** MSPF computation with BDDs (paper Section IV-C).

    For each node of a partition, the Maximum Set of Permissible
    Functions is derived from the partition roots' sensitivity:
    [mspf(n) = ∧_i ((¬f0(po_i) xor f1(po_i)) ∨ dc(po_i))], where
    [f0]/[f1] are the roots' cofactors with respect to [n], computed
    by rebuilding the root BDDs with a free variable in place of [n].
    Optimization uses the permissible set two ways:

    - a node with [mspf = 1] is unobservable and collapses to a
      constant;
    - "connectable" substitutes — nodes [m] with
      [bdd(m) ∧ ¬mspf(n) = bdd(n) ∧ ¬mspf(n)] — replace [n] outright.
      Strong canonicity makes the query a hash-consed comparison, and
      {e many} candidates are examined, keeping the best (the paper's
      enhancement over single-candidate truth-table MSPF).

    Partition roots are treated as fully observable ([dc = 0]),
    which is conservative and keeps the method sound without global
    BDDs. *)

type config = {
  limits : Sbm_partition.Partition.limits;
  bdd_node_limit : int;
  prefilter : Prefilter.bank option;
      (** with a pattern bank, the connectability test's simulation
          shadow (signature equality under the care mask) vets every
          candidate before its BDD conjunctions are built; rejection
          is provably sound, so QoR is bit-identical with the filter
          on or off *)
}

val default_config : config

(** Statistics of one run. *)
type stats = {
  gain : int;
  partitions : int;
  mspf_computed : int; (** nodes whose MSPF stayed within budget *)
  candidates_examined : int; (** connectable-substitute BDD queries *)
  substitutions : int; (** accepted replacements (gain > 0) *)
  constant_collapses : int; (** substitutions by a constant *)
}

(** [run ?obs ?config aig] optimizes a copy of [aig] and returns the
    compacted result with statistics; the input is not modified.
    [obs] receives the [mspf.*] counters plus per-partition [bdd.*]
    manager telemetry. *)
val run :
  ?obs:Sbm_obs.span -> ?config:config -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t * stats

(** [optimize ?obs ?config aig] applies MSPF-based optimization in
    place and returns the total size gain (the engine behind {!run};
    flow scripts use it between passes). *)
val optimize : ?obs:Sbm_obs.span -> ?config:config -> Sbm_aig.Aig.t -> int
