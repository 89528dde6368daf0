(** K-feasible cut enumeration with cut functions.

    A cut of node [n] is a set of nodes (leaves) such that every path
    from an input to [n] passes through a leaf. Cuts up to 6 leaves
    carry their local function as a single 64-bit truth table (low
    [2^|leaves|] bits significant, leaves sorted ascending = variable
    order). The enumeration keeps at most [max_cuts] cuts per node
    (priority cuts), always including the trivial cut [{n}]. *)

type cut = {
  leaves : int array; (** sorted node ids *)
  tt : int64; (** function of the node over the leaves *)
}

(** [enumerate aig ~k ~max_cuts] computes cut sets for all live nodes;
    index the result by node id. [k] must be between 2 and 6. Dead
    nodes have empty sets. *)
val enumerate : Aig.t -> k:int -> max_cuts:int -> cut list array

(** [local aig v ~k ~max_cuts ~depth] computes the cut set of a single
    node against the current graph, recursing at most [depth] levels
    below [v] (deeper nodes contribute only their trivial cut). Always
    consistent with the live structure, unlike a stale global
    enumeration, so optimization passes use it while mutating.

    Each node's cut set is computed once per call, at its first visit:
    the recursion visits fanin 0 before fanin 1, and a node reached
    again at another depth keeps the set of that first visit, even
    when the later visit has more (or fewer) levels left. A node's set
    is its pairwise fanin-cut unions of at most [k] leaves, sorted by
    leaf count and then by leaf ids, without dominated cuts, cut to
    the first [max_cuts], with the trivial cut first unless a one-leaf
    cut is already there. When two pairs give the same leaves with
    different functions (a leaf free in one and expanded in the
    other), the set keeps the function [List.sort_uniq] keeps over the
    unions in reverse generation order. *)
val local : Aig.t -> int -> k:int -> max_cuts:int -> depth:int -> cut list

(** [cut_tt_full c] is the cut function as a {!Sbm_truthtable.Tt.t} on
    [|leaves|] variables. *)
val cut_tt_full : cut -> Sbm_truthtable.Tt.t

(** [tt_mask m] masks the significant bits of an [m]-variable
    single-word table. *)
val tt_mask : int -> int64

(** [stretch tt leaves super] re-expresses [tt] (over [leaves]) on the
    superset leaf list [super]; both must be sorted, and every leaf
    must be in [super]. Bits of [tt] above [2^|leaves|] are ignored
    unless the two lists have the same length, when [tt] is returned
    as it is. *)
val stretch : int64 -> int array -> int array -> int64
