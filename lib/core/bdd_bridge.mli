(** Per-partition BDD context.

    Builds and caches the BDDs of all nodes of a partition over its
    leaf variables — the [all_bdds] hashtable of the paper's Alg. 1 —
    and converts result BDDs back into AIG structure through
    structural hashing. The BDD package's node budget reproduces the
    paper's memory-limit bail-out: nodes whose BDD computation
    overruns are simply absent from the table ("BDD of size 0"),
    and later steps skip them. *)

type t

(** [build ?node_limit aig part] computes BDDs for every partition
    member in topological order. Leaf [i] of the partition maps to BDD
    variable [i]. *)
val build : ?node_limit:int -> Sbm_aig.Aig.t -> Sbm_partition.Partition.t -> t

(** [man t] is the underlying manager (for difference computation). *)
val man : t -> Sbm_bdd.Bdd.man

(** [aig t] is the host AIG. *)
val aig : t -> Sbm_aig.Aig.t

(** [bdd_of_node t v] is the cached BDD of member or leaf node [v], if
    its computation stayed within budget. *)
val bdd_of_node : t -> int -> Sbm_bdd.Bdd.t option

(** [node_of_bdd t b] finds a partition node whose function is exactly
    [b] (strong canonicity makes this a hash lookup — the global query
    the paper credits BDDs for, Section IV-C). Returns the node and
    a complementation flag. *)
val node_of_bdd : t -> Sbm_bdd.Bdd.t -> (int * bool) option

(** [to_aig_lit t b] implements BDD [b] as AIG logic over the
    partition leaves (multiplexer per BDD node, strashed). *)
val to_aig_lit : t -> Sbm_bdd.Bdd.t -> Sbm_aig.Aig.lit

(** [members t] are the partition's AND nodes (telescoped from the
    partition, in topological order). *)
val members : t -> int array

(** [leaves t] are the partition's boundary nodes. *)
val leaves : t -> int array

(** [roots t] are the members with external references. *)
val roots : t -> int array

(** [refresh t] recomputes all member BDDs against the current AIG
    structure (used after a non-equivalence-preserving rewrite, e.g.
    an MSPF-based substitution). *)
val refresh : t -> unit

(** {1 Bail-out accounting}

    Every [Bdd.Limit] bail-out — the paper's Section III-C/IV-C
    budget discipline — is counted instead of silently swallowed;
    {!flush_stats} adds the total to [bdd.limit_bails]. *)

(** [bump_limit_bail t] records a bail-out caught by a caller (e.g.
    the difference computation or an MSPF cofactor walk). When the
    record stream is on, each bail-out also lands there as a [Warn]
    note. *)
val bump_limit_bail : t -> unit

(** [bails t] is the number of bail-outs observed through the context:
    its own catch sites plus callers'. *)
val bails : t -> int

(** [flush_stats ?engine t] flushes the manager's unique-table and
    computed-cache traffic into the registry — raw hit/miss counts and
    [bdd.limit_bails] — and reports a cache hit-rate collapse
    (< 20 % over ≥ 10k lookups) to the record stream. Engines call
    it once per partition. [engine] labels that note (default
    ["bdd"]). *)
val flush_stats : ?engine:string -> t -> unit
