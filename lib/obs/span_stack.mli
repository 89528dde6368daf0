(** The one process-global stack of open spans.

    Every live span of {!Sbm_obs} is a {!frame} here from open to
    close; frames opened by [Flow.pass] are flagged [pass]. The audit
    trail's labels, the watchdog's deadlines and heartbeat, the status
    sample's pass path and the post-mortem [span_stack] all read this
    stack and keep none of their own; ledger rows are a view of the
    closed pass frames.

    Counters are not stored per span: a frame snapshots the {!Metrics}
    registry when it opens and keeps the registry's {!Metrics.activity}
    when it stops. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "sbm_obs_monotonic_ns_byte" "sbm_obs_monotonic_ns"
[@@noalloc]
(** The raw monotonic clock, in nanoseconds from an arbitrary origin. *)

type frame = {
  name : string;
  pass : bool;
  t0 : int64;
  mutable t1 : int64;  (** [0L] until {!stop} *)
  mutable size0 : int;  (** network size entering; [-1] = unset *)
  mutable size1 : int;  (** leaving; [-1] = unset *)
  mutable depth0 : int;
  mutable depth1 : int;
  gc0 : Gc.stat;
  mutable gc1 : Gc.stat option;  (** at {!stop} *)
  counters0 : Metrics.snapshot;  (** the registry at open *)
  mutable delta : (string * int * int) list;
      (** registry activity from open to {!stop}, children included *)
  mutable children : frame list;  (** newest first *)
  mutable deadline_fired : bool;  (** watchdog: deadline reported *)
  mutable unique_max : int;  (** pass: max BDD unique-table load *)
  mutable cache_max : int;  (** pass: max computed-cache load *)
  mutable luts : int;  (** pass: LUT-6 count at close; [-1] = not probed *)
  mutable levels : int;  (** pass: LUT-6 levels at close; [-1] = not probed *)
  mutable dead_node_pct : int;  (** pass: dead AIG node slots at close *)
  mutable fingerprint : int64;
      (** pass: audit-trail chain value at close; [0L] = trail off *)
}

val frames : unit -> frame list
(** Open frames, innermost first. *)

val passes : unit -> frame list
(** Open pass frames, innermost first. *)

val names : ?passes_only:bool -> unit -> string list
(** Names of the open (pass) frames, outermost first. *)

val push :
  ?root:bool -> ?pass:bool -> ?size:int -> ?depth:int -> string -> frame
(** Open a frame. A [root] frame starts a fresh stack: frames a
    crashed run left open are dropped. *)

val stop : frame -> unit
(** Stamp close time, GC state and registry activity; the first call
    wins. The frame stays on the stack. *)

val pop : frame -> unit
(** Remove the frame and anything still open above it; a frame not on
    the stack is ignored. *)
