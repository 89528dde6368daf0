(** Multi-level SOP logic networks.

    The network view used by the elimination / kernel-extraction
    engine: every internal node carries a sum-of-products cover whose
    literals reference other nodes (by id, with phase). Conversions to
    and from {!Sbm_aig.Aig} bracket each use in the flow — the AIG
    stays "the consistent interface and costing between the various
    steps" (paper, Section V-A). *)

type t

type node_id = int

(** [of_aig aig] builds a network with one two-literal AND cover per
    AIG node. Each internal node records the provenance tag of the AIG
    node it came from. *)
val of_aig : Sbm_aig.Aig.t -> t

(** [to_aig ?provenance t] factors every cover (quick literal
    factoring) and rebuilds an AIG with the same I/O signature.
    [provenance = (src, fallback)] threads origin tags through the
    round-trip: the factored logic of each node carried over from
    [src] keeps its recorded tag, while nodes created inside the SOP
    domain (extracted kernels / cubes) are stamped and counted under
    [fallback]. Without [provenance] every node is tagged
    {!Sbm_aig.Aig.Origin.seed}. *)
val to_aig :
  ?provenance:Sbm_aig.Aig.t * Sbm_aig.Aig.Origin.t -> t -> Sbm_aig.Aig.t

(** [num_lits t] is the total literal count over internal nodes — the
    cost function of elimination and extraction. *)
val num_lits : t -> int

(** [num_internal t] is the number of internal (non-PI) nodes. *)
val num_internal : t -> int

val num_inputs : t -> int
val num_outputs : t -> int

(** [internal_nodes t] lists the live internal node ids in topological
    order. *)
val internal_nodes : t -> node_id list

(** [cover t n] is the cover of internal node [n]. *)
val cover : t -> node_id -> Sop.cover

(** [is_output t n] is true when some primary output refers to [n]. *)
val is_output : t -> node_id -> bool

(** [fanouts t n] lists the nodes reachable from the outputs whose
    cover references [n], in no particular order. It reads the
    incrementally maintained fanout structure: no whole-network scan. *)
val fanouts : t -> node_id -> node_id list

(** [eliminate t ~threshold ~max_cubes ?only] repeatedly collapses
    nodes whose literal variation is below [threshold] until a fixed
    point (paper, Section IV-B). [only] restricts candidates to a node
    subset (the per-partition heterogeneous mode). Returns the least
    variation among the candidates it evaluated and kept, [max_int]
    when it kept none: from the same network, any threshold above
    [threshold] and no larger than that value makes the same
    decisions. *)
val eliminate : t -> threshold:int -> max_cubes:int -> ?only:(node_id -> bool) -> unit -> int

(** [extract_kernels t ?only ~max_passes ()] greedily extracts the
    best-value kernel as a new node until no kernel saves literals, at
    most [max_passes] times. Returns the number of new nodes. *)
val extract_kernels : t -> ?only:(node_id -> bool) -> max_passes:int -> unit -> int

(** [extract_cubes t ?only ~max_passes ()] greedily extracts the best
    common sub-cube (two literals) shared across cubes. Returns the
    number of new nodes. *)
val extract_cubes : t -> ?only:(node_id -> bool) -> max_passes:int -> unit -> int

(** {1 Snapshot support}

    The heterogeneous-elimination engine tries several thresholds on
    the same partition and keeps the best (paper, Section IV-B); these
    hooks let it roll back a trial. *)

(** [mark t] is a checkpoint covering node allocation: the id the
    next allocation gets. *)
val mark : t -> int

(** [set_cover t n cover] overwrites node [n]'s cover. *)
val set_cover : t -> node_id -> Sop.cover -> unit

(** [revive t n] marks an eliminated node alive again (rollback). *)
val revive : t -> node_id -> unit

(** [truncate t mark] deletes every node allocated at or after [mark]
    and hands their ids out again: the next allocation gets [mark].
    Callers must first restore every cover that names one of them
    (the heterogeneous engine restores the partition's covers, then
    truncates). Raises [Invalid_argument] when a node at or past
    [mark] is still referenced: reachable from the outputs
    ([refs > 0]) or named by the cover of a node below [mark]. *)
val truncate : t -> int -> unit

(** [check t] validates structural invariants (acyclicity, live
    references) and recomputes the fanout structure from scratch:
    per node, the reference count (outputs plus reachable covers
    mentioning it), the list of covers mentioning it and the output
    flag must equal the incrementally maintained ones. Raises
    [Failure], naming the node, on any violation. *)
val check : t -> unit

(** [eval t bits] evaluates all outputs on one input assignment
    (testing hook). *)
val eval : t -> bool array -> bool array

(** [fold_hash t] is a canonical 64-bit structural digest of the
    reachable cover structure — the network-side twin of
    [Aig.fold_hash]. Node ids never enter the hash; literals within a
    cube and cubes within a cover combine commutatively. Used as the
    structure component of heterogeneous-kernel merge-boundary
    fingerprints (DESIGN.md §9). *)
val fold_hash : t -> int64
