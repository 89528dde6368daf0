(** Partitioning engine for window-based Boolean methods.

    Reproduces the scheme of paper Section III-B: nodes are collected
    in topological order, sorted by the similarity of their structural
    support, and grouped greedily under limits on the number of
    levels (the priority constraint, as it tracks reasoning-engine
    complexity), internal nodes and boundary inputs. Partitions are
    plain node sets: their leaves (boundary signals feeding them) act
    as free variables for the per-partition BDD / truth-table
    reasoning. *)

type t = {
  nodes : int array; (** AND node ids, topological order *)
  leaves : int array; (** boundary driver nodes (PIs or external ANDs) *)
  roots : int array; (** members with fanout outside the partition or POs *)
}

type limits = {
  max_levels : int; (** level span allowed inside one partition *)
  max_nodes : int;
  max_leaves : int;
}

(** Paper-scale defaults: levels 5-30, sizes <= 1000; we default to
    the middle of the recommended range. *)
val default_limits : limits

(** [compute aig limits] partitions all live AND nodes. Every node
    belongs to exactly one partition. *)
val compute : Sbm_aig.Aig.t -> limits -> t list

(** [of_nodes aig nodes] makes a partition from an explicit node set,
    deriving leaves and roots (used for monolithic runs, where the
    partition is the whole network). *)
val of_nodes : Sbm_aig.Aig.t -> int list -> t

(** [whole aig] is the single partition holding every live AND node
    (the "applied monolithically" mode of Section III-B). *)
val whole : Sbm_aig.Aig.t -> t
