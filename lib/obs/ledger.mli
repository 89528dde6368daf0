(** Per-pass resource ledger.

    [Sbm_obs.close_pass] builds one {!row} per pass at its close and
    appends it to the trace ([Sbm_obs.ledger]), in completion order —
    QoR before/after, wall time, registry counter deltas, GC
    allocation, a peak-heap sample and the BDD/AIG occupancy gauges.
    Rows are deterministic from run to run except for the resource
    samples; [row_to_json ~stable:true] projects onto the
    deterministic subset. *)

type row = {
  path : string;  (** slash-joined pass path, e.g. ["iteration-1/mspf"] *)
  index : int;  (** completion order within the run, from 0 *)
  size_before : int;
  size_after : int;
  depth_before : int;
  depth_after : int;
  luts : int;  (** LUT-6 count after the pass; [-1] = not probed *)
  levels : int;  (** LUT levels after the pass; [-1] = not probed *)
  fingerprint : int64;
      (** audit-trail chain value at the pass boundary ({!Stream.chain});
          [0L] when the trail was disabled. Deterministic, so part of
          the stable projection (emitted as a 16-hex-digit string). *)
  wall_ns : int64;
  counters : (string * int) list;
      (** nonzero registry counter deltas over the pass, sorted by name *)
  minor_words : float;
  major_words : float;
  heap_words : int;  (** major heap size sampled at pass end *)
  unique_load_pct : int;
      (** max BDD unique-table load observed during the pass *)
  cache_load_pct : int;
      (** max BDD computed-cache load observed during the pass *)
  dead_node_pct : int;  (** dead AIG node slots after the pass *)
}

val drain_gauges : unit -> int * int
(** Fold the BDD load gauges into every open pass frame, reset them and
    return the drained [(unique, cache)] loads. Runs whenever a pass
    opens or closes, so each frame's maxima cover exactly its own
    extent. *)

val row_to_json : ?stable:bool -> row -> string
(** One row as a JSON object. [~stable:true] omits [wall_ns],
    [minor_words], [major_words] and [heap_words] — the fields that
    vary from run to run. *)

val rows_to_json : ?stable:bool -> row list -> string
(** A JSON array of rows. *)

val row_of_json : Json.t -> row
(** Inverse of {!row_to_json}. Fields the stable projection or an older
    writer omitted read as 0; absent [luts]/[levels] as [-1]. *)
