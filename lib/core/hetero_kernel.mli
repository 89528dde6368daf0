(** Heterogeneous elimination for kernel extraction (paper
    Section IV-B).

    The network is partitioned; each partition tries node elimination
    with every threshold from the paper's empirical list
    [(-1, 2, 5, 20, 50, 100, 200, 300)] followed by kernel and cube
    extraction, and only the best trial (largest literal reduction) is
    kept. Elimination is restricted to nodes whose fanouts stay inside
    the partition, so trials roll back cleanly. *)

type config = {
  partition_size : int; (** internal nodes per partition *)
  prefilter : Prefilter.bank option;
      (** kernel trials accept on literal counts, so there is no
          per-candidate test to shadow; with a bank the engine instead
          reports a QoR-neutral signature census (potential functional
          duplicates as survivors) under the [prefilter.*] counters *)
}

val default_config : config

(** Statistics of one run. *)
type stats = {
  partitions : int;
  trials : int; (** thresholds tried across all partitions *)
  improved_partitions : int; (** partitions that kept a better trial *)
  lits_before : int;
  lits_after : int;
}

(** [run ?obs ?config aig] round-trips through the SOP network view
    and returns a fresh optimized AIG with statistics (callers keep
    the smaller of input/output, making the enclosing move gain
    >= 0). The input is not modified. [obs] receives the [kernel.*]
    counters. *)
val run :
  ?obs:Sbm_obs.span -> ?config:config -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t * stats

(** [run_homogeneous ~threshold aig] is the ablation baseline:
    one global threshold for the whole network. *)
val run_homogeneous : threshold:int -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t
