(** Global job-count setting. The flow reads it nowhere: every
    partition engine runs its partitions in one sequential loop
    ({!Sched.each}). It sizes {!Pool.global}, which bench/perf links.

    Resolution order: an explicit {!set} (the [--jobs] CLI flag), then
    the [SBM_JOBS] environment variable, then 1. *)

(** [set n] fixes the job count. Raises [Invalid_argument] if [n < 1]. *)
val set : int -> unit

(** [get ()] returns the effective job count (>= 1). *)
val get : unit -> int
