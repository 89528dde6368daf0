(** Live run telemetry sink.

    While a status file is open ({!start}), the main domain's poll
    ([Sbm_obs.poll], at the watchdog's poll sites and at every live
    span open and close) snapshots the {!Metrics} registry, the
    {!Span_stack} of open spans and the verdict count of the
    {!Stream} at most once per [interval_ms] into a JSONL
    status file — the full retained history, one object per line,
    oldest first — replaced by atomic rename so an external reader
    ([sbm top]) never observes a torn snapshot. A sample is due when
    the interval has passed, but it is taken at the next poll, which
    can be a span later.

    Sample line schema (all keys always present):
    {v
    {"seq":N,"t_ms":F,"pass":"flow>pass","counters":{...},
     "gauges":{...},"verdicts":N,"abort":B,"finished":B}
    v} *)

type sample = {
  seq : int;
  t_ms : float;  (** on the {!Stream}'s clock, to the microsecond *)
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
(** A status file is open. *)

val start : ?interval_ms:float -> string -> unit
(** [start ~interval_ms path] opens the status file and writes the
    first sample. Later samples come from {!poll}, at most every
    [interval_ms] (default 500, clamped ≥ 20). While the file is open,
    flows open a span even when the caller passed none, so the pass
    path is always known.
    @raise Sys_error if the first sample cannot be written.
    @raise Invalid_argument if a status file is already open. *)

val poll : unit -> unit
(** Write a sample if one is due. Write errors are ignored: a file that
    stops being writable costs the dashboard its updates, not the run. *)

val stop : unit -> unit
(** Write a final sample with [finished = true] and close the file.
    No-op when none is open. *)

val samples : unit -> sample list
(** History of the open or most recently closed status file, oldest
    first. Used to embed counter series into the trace JSON for the
    Perfetto exporter. *)
