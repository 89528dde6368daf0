(** Anomaly watchdog for long SBM runs.

    The watchdog evaluates configurable thresholds against signals the
    engines feed it — pass open times, per-partition BDD bail-outs,
    per-round gradient gains, GC heap growth — and reacts to a
    violation with a verdict: a [watchdog] event in the
    {!Flight_recorder} (id = rule, message = detail; severity [Warn]
    for {!Note}, [Error] for {!Abort}), which post-mortem dumps and
    [sbm inspect] surface. Armed with {!Abort} it also requests a
    graceful abort: the engines check {!abort_requested} at their loop
    boundaries and wind down with their budget marked exhausted, never
    mid-surgery.

    Like the recorder, the watchdog is a process-global singleton that
    costs one branch when disarmed. It owns the heartbeat: with
    [heartbeat_ms] set, {!poll} prints a one-line progress pulse to
    stderr at most every interval (the [--progress] flag). All hooks
    are safe to call when disarmed.

    Rule table (rule name → trigger → fires):
    - [pass-deadline]: an open pass exceeds [pass_deadline_ms]
      (checked by {!poll} against the pass frames of {!Span_stack};
      once per pass activation).
    - [bail-streak]: [max_bail_streak] consecutive partitions each
      bail on the BDD node budget at least once ({!note_partition}).
    - [gradient-stall]: [stall_rounds] consecutive zero-gain gradient
      rounds ({!note_round}).
    - [heap-growth]: the OCaml major heap exceeds [max_heap_mb]
      (checked by {!poll}; fires once per arming). *)

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

val enabled : unit -> bool

val arm : config -> unit
(** Arm with fresh state (streaks cleared). Also enables the
    {!Flight_recorder} if it is not already on, so verdicts always land
    somewhere. *)

val disarm : unit -> unit

val abort_requested : unit -> bool
(** True after an [Abort]-armed violation, until the innermost pass
    ends (or {!clear_abort}). *)

val clear_abort : unit -> unit
(** Called when a pass span closes: a pending abort applied to the
    pass that just wound down. *)

(** {1 Signals from the flow and the engines} *)

val note_partition : engine:string -> bails:int -> unit
(** A partition finished with [bails] BDD budget bail-outs; [bails= 0]
    resets the streak. *)

val note_round : gain:int -> unit
(** A gradient round finished with total [gain]; positive gain resets
    the stall streak. *)

val poll : unit -> unit
(** Evaluate time- and memory-based rules and emit a heartbeat if one
    is due; a single branch when disarmed. It is the watchdog's part of
    [Sbm_obs.poll], which the engines call at partition/round
    boundaries. When stderr is not a TTY the heartbeat is throttled to
    one line per pass-path change (CI logs get a pass trail, not a
    pulse train). *)

(** {1 Heartbeat test hooks} *)

val force_tty : bool option ref
(** Override the stderr-is-a-TTY decision ([None] = ask [Unix.isatty];
    test hook for exercising both throttle modes without a pty). *)

val beats : unit -> int
(** Heartbeat lines printed since {!arm}. *)
