(** Resubstitution flow based on Boolean difference (paper Alg. 2).

    Partitions the network (Section III-B), precomputes per-partition
    BDDs, scans candidate node pairs under structural and functional
    filters, and commits a Boolean-difference rewrite whenever it
    shrinks the network — or keeps it equal-size when [accept_zero]
    is set, "reshaping the network ... and helping escape local
    minima" (Section III-D). *)

type config = {
  diff : Boolean_difference.config;
  limits : Sbm_partition.Partition.limits;
  bdd_node_limit : int; (** manager budget — the paper's memory cap *)
  accept_zero : bool;
  monolithic : bool; (** single whole-network partition *)
  prefilter : Prefilter.bank option;
      (** functional filtering "similar to [1]" (Section III-B), made
          sound: with a pattern bank, every candidate pair is vetted
          against simulation signatures before any BDD work, and a
          pair is only skipped when the difference computation
          provably returns nothing for it — QoR is bit-identical with
          the filter on or off (see {!Prefilter}) *)
}

val default_config : config

(** Statistics of one run. *)
type stats = {
  gain : int;
  partitions : int;
  pairs_tried : int; (** pairs that reached the difference computation *)
  differences_built : int; (** differences whose BDD stayed in budget *)
  rewrites : int; (** accepted rewrites (including zero-gain ones) *)
}

(** [run ?obs ?config aig] optimizes a copy of [aig] and returns the
    compacted result with statistics; the input is not modified.
    [obs] receives the [diff.*] counters plus per-partition [bdd.*]
    manager telemetry. *)
val run :
  ?obs:Sbm_obs.span -> ?config:config -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t * stats

(** [optimize ?obs ?config aig] applies the flow in place and returns
    the total size gain (the engine behind {!run}; flow scripts use
    it between passes). *)
val optimize : ?obs:Sbm_obs.span -> ?config:config -> Sbm_aig.Aig.t -> int
