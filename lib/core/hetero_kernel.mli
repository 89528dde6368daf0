(** Heterogeneous elimination for kernel extraction (paper
    Section IV-B).

    The network is partitioned; each partition tries node elimination
    with every threshold from the paper's empirical list
    [(-1, 2, 5, 20, 50, 100, 200, 300)] followed by kernel and cube
    extraction, and only the best trial (largest literal reduction) is
    kept. Elimination is restricted to nodes whose fanouts stay inside
    the partition, so trials roll back cleanly. *)

type config = { partition_size : int (** internal nodes per partition *) }

val default_config : config

(** [run ?config aig] round-trips through the SOP network view
    and returns a fresh optimized AIG (callers keep the smaller of
    input/output, making the enclosing move gain >= 0). The input is
    not modified. The engine counts into the registry: the [kernel.*]
    counters. *)
val run : ?config:config -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t

(** [run_homogeneous ~threshold aig] is the ablation baseline:
    one global threshold for the whole network. *)
val run_homogeneous : threshold:int -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t
