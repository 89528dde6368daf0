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

(** [run ?config aig] optimizes a copy of [aig] and returns the
    compacted result; the input is not modified. The engine counts
    into the registry: the [diff.*] counters, the [prefilter.*]
    verdicts with a bank, and per-partition [bdd.*] manager
    telemetry. *)
val run : ?config:config -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t

(** [optimize ?config aig] applies the flow in place and returns
    the total size gain (the engine behind {!run}; flow scripts use
    it between passes). *)
val optimize : ?config:config -> Sbm_aig.Aig.t -> int
