(** Anomaly watchdog for long SBM runs.

    Armed with thresholds, the watchdog reacts to a violation with a
    verdict: a [Verdict] record in the {!Stream} (engine ["watchdog"],
    id = rule, message = detail; severity [Warn] for {!Note}, [Error]
    for {!Abort}). With {!Abort} it also requests a graceful abort: the
    engines check {!abort_requested} at their loop boundaries and wind
    down with their budget marked exhausted, never mid-surgery. Rules:
    - [pass-deadline]: an open pass frame of {!Span_stack} exceeds
      [pass_deadline_ms] (at {!poll}, once per pass activation);
    - [heap-growth]: the major heap exceeds [max_heap_mb] (at {!poll},
      once per arming);
    - [bail-streak]: [max_bail_streak] consecutive [Merge] records with
      a nonzero ["bails"] metric;
    - [gradient-stall]: [stall_rounds] consecutive [Round] records
      with zero ["gain"].

    It also owns the [--progress] heartbeat. A process-global
    singleton, it costs one branch when disarmed. *)

type action = Note | Abort

type config = {
  pass_deadline_ms : float option;
  max_bail_streak : int option;
  stall_rounds : int option;
  max_heap_mb : float option;
  heartbeat_ms : float option;  (** stderr heartbeat interval *)
  action : action;  (** reaction to a violated threshold *)
}

val default_config : config
(** Every threshold off, no heartbeat, action [Note]. *)

(** {1 Lifecycle} *)

val arm : config -> unit
(** Arm with fresh state (streaks cleared) and install the record rules
    as {!Stream.react}. Also starts the recorder if it is off, so
    verdicts always land somewhere. *)

val disarm : unit -> unit

val abort_requested : unit -> bool
(** True after an [Abort]-armed violation, until the stream's next
    pass-end record: the abort applies to the pass that winds down. *)

val poll : unit -> unit
(** The watchdog's part of [Sbm_obs.poll]: the time and heap rules,
    and a heartbeat if one is due (when stderr is not a TTY, at most one
    per pass-path change). A single branch when disarmed. *)

(** {1 Heartbeat test hooks} *)

val force_tty : bool option ref
(** Pins the stderr-is-a-TTY decision ([None] = ask [Unix.isatty]). *)

val beats : unit -> int
(** Heartbeat lines printed since {!arm}. *)
