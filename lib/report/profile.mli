(** Time attribution over telemetry traces.

    A view of the span forest {!Sbm_obs.of_json} reads back from a
    trace report ([sbm opt --report FILE.json]) that answers "where did
    the milliseconds go": per span name, how much wall time was spent
    in total (span inclusive) and how much was {e self} time — wall
    time not attributed to any child span ({!Sbm_obs.aggregate}). Also
    renders collapsed stacks consumable by Brendan Gregg's
    [flamegraph.pl]. *)

type span = Sbm_obs.node

(** {!Sbm_obs.of_json}. *)
val of_json : string -> (span list, string) result

(** {!Sbm_obs.load}. *)
val load : string -> (span list, string) result

(** {!Sbm_obs.self_ms}. *)
val self_ms : span -> float

(** One row of {!Sbm_obs.aggregate}; [calls] is its [count]. *)
type agg = { agg_name : string; calls : int; total_ms : float; self_ms : float }

(** [aggregate spans] is {!Sbm_obs.aggregate}, self time
    descending. *)
val aggregate : span list -> agg list

(** [pp_hotspots ?top ppf spans] prints the top-[top] (default 20)
    hotspot table: calls, total ms, self ms, self-time share. *)
val pp_hotspots : ?top:int -> Format.formatter -> span list -> unit

(** [to_collapsed spans] renders one ["stack;frames WEIGHT"] line per
    distinct stack, weight = integer self-time microseconds, identical
    stacks merged, zero-weight stacks dropped — the folded format
    [flamegraph.pl] consumes directly. *)
val to_collapsed : span list -> string list

(** [write_collapsed spans path] writes {!to_collapsed} lines to a
    file. *)
val write_collapsed : span list -> string -> unit
