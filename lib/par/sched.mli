(** The one partition driver behind every partition engine.

    [partitions parts ~analyze ~clean ~merge ~redo] processes [parts]
    at the global job count ({!Jobs.get}):

    - with one job or at most one partition, it calls [redo i part] in
      index order — the sequential path, no snapshot, no capture;
    - otherwise it analyzes chunks of [2 × jobs] partitions on
      {!Pool.global}: [analyze i part] runs on a worker domain and must
      only read shared state (or mutate a private snapshot); its
      registry bumps and flight-recorder events are captured in one
      shard ([Sbm_obs.capture]). Results
      are applied on the calling domain in ascending index: when the
      result is [clean] and no earlier partition of the chunk
      committed an edit, the captured telemetry is replayed and
      [merge i part result] is called; otherwise [redo i part] redoes
      the partition on the live structure.

    [redo] returns [true] when it committed edits to the live
    structure. Before each partition the driver polls
    ([Sbm_obs.poll]); a pending watchdog abort skips the partition and counts it in
    [watchdog.partitions_skipped].

    With this contract a run at any job count applies the exact same
    edits, counters and events in the exact same order as a sequential
    run. *)
val partitions :
  'p list ->
  analyze:(int -> 'p -> 'a) ->
  clean:('a -> bool) ->
  merge:(int -> 'p -> 'a -> unit) ->
  redo:(int -> 'p -> bool) ->
  unit
