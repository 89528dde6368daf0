(** The partition loop behind every partition engine. *)

(** [each parts f] calls [f i part] on the calling domain in index
    order — the sequential path, no snapshot, no capture. Before each
    partition it polls ([Sbm_obs.poll]); a pending watchdog abort
    skips the partition and counts it in
    [watchdog.partitions_skipped]. *)
val each : 'p list -> (int -> 'p -> unit) -> unit

(** [partitions parts ~analyze ~clean ~merge ~redo] processes [parts]
    at the global job count ({!Jobs.get}):

    - with one job or at most one partition, it is
      [each parts (fun i p -> ignore (redo i p))];
    - otherwise it still walks [parts] with {!each}, and at the first
      partition not yet analyzed it analyzes the next [2 × jobs]
      partitions on {!Pool.global}: [analyze i part] runs on a worker
      domain and must only read shared state (or mutate a private
      snapshot); its registry bumps and stream records are
      captured in one shard ([Sbm_obs.capture]). When the result is
      [clean] and no earlier partition of the chunk committed an edit,
      the captured telemetry is replayed and [merge i part result] is
      called; otherwise [redo i part] redoes the partition on the live
      structure.

    [redo] returns [true] when it committed edits to the live
    structure. With this contract a run at any job count applies the
    exact same edits, counters and events in the exact same order as a
    sequential run. *)
val partitions :
  'p list ->
  analyze:(int -> 'p -> 'a) ->
  clean:('a -> bool) ->
  merge:(int -> 'p -> 'a -> unit) ->
  redo:(int -> 'p -> bool) ->
  unit
