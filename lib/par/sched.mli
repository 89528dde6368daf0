(** The partition loop behind every partition engine. *)

(** [each parts f] calls [f i part] on the calling domain in index
    order, on the live structure. Before each partition it polls
    ([Sbm_obs.poll]); a pending watchdog abort skips the partition and
    counts it in [watchdog.partitions_skipped]. *)
val each : 'p list -> (int -> 'p -> unit) -> unit
