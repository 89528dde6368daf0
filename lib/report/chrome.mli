(** Chrome/Perfetto trace-event exporter.

    Converts a v2 telemetry trace report (the JSON written by
    [--report trace.json]) into the Chrome Trace Event Format accepted
    by ui.perfetto.dev and chrome://tracing: spans become B/E duration
    events, live-telemetry samples become "C" counter series, and the
    recorder's stream records (watchdog verdicts included) become
    instant events. *)

val convert : string -> (string, string) result
(** [convert src] parses [src] as a v2 trace report and returns the
    Chrome trace JSON document, or [Error msg] when [src] is not valid
    JSON or has no spans. *)

val of_trace : Json.t -> Sbm_obs.node list -> (string, string) result
(** [of_trace doc spans] is {!convert} on a parsed trace document [doc]
    whose spans [Sbm_obs.of_json_value] read as [spans]. *)
