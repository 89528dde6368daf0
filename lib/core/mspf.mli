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

(** [run ?config aig] optimizes a copy of [aig] and returns the
    compacted result; the input is not modified. The engine counts
    into the registry: the [mspf.*] counters, the [prefilter.*]
    verdicts with a bank, and per-partition [bdd.*] manager
    telemetry. *)
val run : ?config:config -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t

(** [optimize ?config aig] applies MSPF-based optimization in
    place and returns the total size gain (the engine behind {!run};
    flow scripts use it between passes). *)
val optimize : ?config:config -> Sbm_aig.Aig.t -> int

(** [substitute aig ~leaves ~members ~mspf ~connectable ~refresh
    ~commit] is the substitution loop of one partition, shared by the
    BDD domain and {!Mspf_tt}'s truth tables. It visits the live
    AND members ([members ()] at the start) larger-MFFC first,
    skipping members in the cone of an AND leaf. For each, [mspf n]
    is its nonzero permissible set ([None] when the domain could not
    compute one or it is zero); the best-gain literal of
    [connectable n m] replaces [n] when it saves nodes, after
    [commit n candidate]. Each replacement is followed by [refresh ()]
    (the domain recomputes its functions and [members ()]). Returns
    the number of substitutions and their total gain. *)
val substitute :
  Sbm_aig.Aig.t ->
  leaves:int array ->
  members:(unit -> int array) ->
  mspf:(int -> 'f option) ->
  connectable:(int -> 'f -> Sbm_aig.Aig.lit list) ->
  refresh:(unit -> unit) ->
  commit:(int -> Sbm_aig.Aig.lit -> unit) ->
  int * int
