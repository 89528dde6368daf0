(** In-flight black-box recorder for SBM runs.

    A process-global, bounded ring buffer of structured events —
    severity, emitting engine, pass/partition id, key metrics and a
    monotonic timestamp — written to by the engines, the BDD manager,
    the SAT solver and the flow's pass boundaries while an optimization
    runs. Unlike the post-hoc telemetry of {!Sbm_obs} (spans, frozen
    after the run), the recorder is readable at any instant: the
    watchdog consults it to evaluate thresholds, the heartbeat prints
    its tail, and the crash handler dumps it when a run dies.

    The recorder is off by default and designed to cost one branch
    when off: every entry point checks {!enabled} first, so the
    disabled path is a load and a conditional jump. When on, recording
    an event is an array store into a preallocated ring — old events
    are overwritten once the buffer is full (the [dropped] count keeps
    the loss visible). Verdicts are the exception: an event
    of engine ["watchdog"] (severity [Warn] for a note, [Error] for an
    abort) is the one record of a verdict, and the recorder keeps it
    when the ring wraps.

    The ring is owned by the main domain. On a worker domain running
    under [Sbm_obs.capture], {!record} defers the event to the
    domain's shard; [Sbm_obs.replay] appends it on the main domain in
    an order the scheduler cannot perturb. *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val severity_of_string : string -> severity
(** Inverse of {!severity_to_string}; anything else reads as [Info]. *)

type event = {
  seq : int;  (** 0-based sequence number since {!enable} *)
  t_ns : int64;  (** monotonic time since {!enable} *)
  severity : severity;
  engine : string;  (** emitter: ["flow"], ["gradient"], ["bdd"], ... *)
  id : string;  (** pass / partition / round id, [""] when n/a *)
  message : string;
  metrics : (string * int) list;  (** key metrics, in emission order *)
}

(** {1 Lifecycle} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** [enable ()] switches the recorder on with a fresh, empty ring of
    [capacity] slots (default 512, clamped to at least 16) and resets
    the sequence counter and time origin. Calling it while already
    enabled restarts from empty. *)

val disable : unit -> unit
(** Switch off and drop the buffer. *)

val capacity : unit -> int
(** Ring capacity; [0] when disabled. *)

val elapsed_ns : unit -> int64
(** Monotonic time since {!enable} ([0L] when disabled). *)

val t0_ns : unit -> int64
(** Absolute monotonic timestamp of {!enable} ([0L] when disabled).
    Event [t_ns] values are relative to this origin; adding it back
    recovers absolute clock readings for crash-dump correlation. *)

(** {1 Recording} *)

val record :
  ?severity:severity ->
  ?id:string ->
  ?metrics:(string * int) list ->
  engine:string ->
  string ->
  unit
(** [record ~engine msg] appends an event (severity defaults to
    [Info]), or defers it to the calling domain's shard. No-op when
    disabled. *)

(** {1 Reading} *)

val events : unit -> event list
(** Buffered events, oldest first: the verdicts the ring overwrote,
    then the ring. *)

val is_verdict : event -> bool
(** The event is a watchdog verdict (engine ["watchdog"]). *)

val verdicts : unit -> event list
(** The verdict events, oldest first. *)

val recorded : unit -> int
(** Total events recorded since {!enable}, dropped ones included. *)

val dropped : unit -> int
(** Events lost to ring wraparound:
    [recorded () - List.length (events ())]. *)

(** {1 JSON} *)

val buf_event : ?t0:int64 -> Buffer.t -> event -> unit
(** One event as a JSON object:
    [{"seq":N,"t_ms":F,"severity":S,"engine":S,"id":S,"message":S,
    "metrics":{...}}]. With [t0] (the recorder's origin), an absolute
    ["t_ns"] follows ["t_ms"], as a decimal string. *)

val event_of_json : ?t0:int64 -> Json.t -> event
(** Inverse of {!buf_event} with the same [t0]; it also reads the
    numeric ["t_ns"] of version-1 dumps. Missing members read as
    defaults (severity [Info], engine ["?"]). *)

val ns_of_json : Json.t option -> int64 option
(** An absolute clock reading: a decimal string, or a number (version-1
    dumps, exact only below 2^53). *)
