(** Area-oriented LUT-K technology mapping.

    A priority-cuts mapper in the style of ABC's [if -K 6 -a], used to
    evaluate the EPFL area category (Table I): cuts up to [k] leaves
    are enumerated per node, each node selects the cut minimizing
    area flow (depth as tie-break), and iterated area-recovery passes
    re-select cuts against the fanout references induced by the
    current mapping. The result reports the LUT count and mapped
    depth — the two columns of the EPFL best-results tables. *)

type lut = { root : int; leaves : int array }

type mapping = {
  luts : lut list;
  lut_count : int;
  depth : int; (** LUT levels ("Level count" in Table I) *)
}

(** [map ?k aig] maps the network into [k]-input LUTs ([k] in [2,6],
    default 6), keeping 8 priority cuts per node and running two area-recovery
    passes after the first selection. *)
val map : ?k:int -> Sbm_aig.Aig.t -> mapping

(** [check aig mapping] verifies cover properties: every output node
    is mapped, and every LUT's leaves are mapped nodes, inputs or
    constants. Raises [Failure] on violation (test hook). *)
val check : Sbm_aig.Aig.t -> mapping -> unit
