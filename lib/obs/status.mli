(** Live run telemetry sink.

    {!start} spawns a sampler domain that every [interval_ms] snapshots
    the {!Metrics} registry, the {!Span_stack} of open spans and
    the {!Watchdog} verdict count into a JSONL status file — the full
    retained history, one object per line, oldest first — replaced by
    atomic rename so an external reader ([sbm top]) never observes a
    torn snapshot.

    Sample line schema (all keys always present):
    {v
    {"seq":N,"t_ms":F,"pass":"flow>pass","counters":{...},
     "gauges":{...},"verdicts":N,"abort":B,"finished":B}
    v} *)

type sample = {
  seq : int;
  t_ms : float;  (** since {!start}, to the microsecond *)
  pass : string;  (** open-span path, outermost first, [">"]-joined *)
  counters : (string * int) list;
  gauges : (string * int) list;
  verdicts : int;
  abort : bool;
  finished : bool;
}

val sample_to_json : sample -> string
(** One status-file line (no trailing newline). *)

val sample_of_json : Json.t -> sample
(** Inverse of {!sample_to_json}; missing members read as 0, [""] or
    [false]. *)

val load : string -> (sample list, string) result
(** Parse a status file, oldest first, skipping unparsable (torn)
    lines. [Error] when the file is unreadable or holds no parsable
    sample. *)

val active : unit -> bool

val start : ?interval_ms:float -> string -> unit
(** [start ~interval_ms path] writes an immediate first sample, then
    samples every [interval_ms] (default 500, clamped ≥ 20) from a
    dedicated domain. While it runs, flows open a span even when the
    caller passed none, so the pass path is always known.
    @raise Invalid_argument if a sampler is already running. *)

val stop : unit -> unit
(** Stop the sampler domain (joins it), write a final sample with
    [finished = true], and retire the history for {!samples}. No-op
    when not running. *)

val samples : unit -> sample list
(** Retained history, oldest first — of the live sampler if running,
    else of the most recently stopped one. Used to embed counter
    series into the trace JSON for the Perfetto exporter. *)
