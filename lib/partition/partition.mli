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

(** {1 Live windows}

    After in-place surgery a partition's node order and root set go
    stale; the window engines (BDD and truth-table MSPF, the BDD
    bridge) recompute them against the live graph. *)

(** [live_members aig members] is the live AND nodes of the set
    [members], in current topological order. *)
val live_members : Sbm_aig.Aig.t -> (int, unit) Hashtbl.t -> int array

(** [live_roots aig members order] is the nodes of [order] with
    references from outside [members]: external fanouts or primary
    outputs, the observability boundary. *)
val live_roots : Sbm_aig.Aig.t -> (int, unit) Hashtbl.t -> int array -> int array

(** [leaf_cone_members aig ~leaves members] is the set of [members]
    lying in the transitive fanin of an AND leaf. The partition is not
    convex around them, so the leaves-as-free-variables model would
    under-approximate their observability. *)
val leaf_cone_members :
  Sbm_aig.Aig.t -> leaves:int array -> int array -> (int, unit) Hashtbl.t

(** [whole aig] is the single partition holding every live AND node
    (the "applied monolithically" mode of Section III-B). *)
val whole : Sbm_aig.Aig.t -> t
