(** Anomaly watchdog for long SBM runs.

    The watchdog evaluates configurable thresholds against signals the
    engines feed it — pass open times, per-partition BDD bail-outs,
    per-round gradient gains, GC heap growth — and reacts to a
    violation by recording a [watchdog] event in the
    {!Flight_recorder}, appending a {!verdict} (surfaced by post-mortem
    dumps and [sbm inspect]), and, when armed with {!Abort}, requesting
    a graceful abort: the engines check {!abort_requested} at their
    loop boundaries and wind down with their budget marked exhausted,
    never mid-surgery.

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

val action_to_string : action -> string
(** ["note"] or ["abort"]. *)

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

type verdict = {
  rule : string;  (** rule name from the table above *)
  detail : string;  (** human-readable trigger description *)
  action : action;
  t_ns : int64;  (** monotonic, since the recorder's origin *)
}

(** {1 Lifecycle} *)

val enabled : unit -> bool

val arm : config -> unit
(** Arm with fresh state (streaks and verdicts cleared). Also
    enables the {!Flight_recorder} if it is not already on, so
    verdicts always land somewhere. *)

val disarm : unit -> unit

val verdicts : unit -> verdict list
(** Fired verdicts, oldest first. *)

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
    is due. Engines call this at partition/round boundaries; it is a
    single branch when disarmed. When stderr is not a TTY the
    heartbeat is throttled to one line per pass-path change (CI logs
    get a pass trail, not a pulse train). *)

(** {1 Heartbeat test hooks} *)

val force_tty : bool option ref
(** Override the stderr-is-a-TTY decision ([None] = ask [Unix.isatty];
    test hook for exercising both throttle modes without a pty). *)

val beats : unit -> int
(** Heartbeat lines printed since {!arm}. *)

(** {1 JSON} *)

val buf_verdict : Buffer.t -> verdict -> unit
(** One verdict as a JSON object:
    [{"rule":S,"detail":S,"action":"note"|"abort","t_ms":F}]. *)

val verdict_of_json : Json.t -> verdict
(** Inverse of {!buf_verdict}, [t_ns] to the microsecond [t_ms]
    carries. *)
