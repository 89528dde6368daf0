(** The one process-global stack of open spans.

    Every live span of {!Sbm_obs} is a {!frame} here from open to
    close; frames opened by [Flow.pass] are flagged [pass]. The audit
    trail's labels, the watchdog's deadlines and heartbeat, the status
    sample's pass path, the ledger rows' paths and the post-mortem
    [span_stack] all read this stack and keep none of their own.

    A frame holds only what an open span needs. Nothing is written to
    it at or after close: [Sbm_obs.close] freezes the span from the
    frame and the clock, GC and registry readings it takes then.

    Counters are not stored per span: a frame snapshots the {!Metrics}
    registry when it opens, and the span's delta is the registry's
    {!Metrics.activity} since. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "sbm_obs_monotonic_ns_byte" "sbm_obs_monotonic_ns"
[@@noalloc]
(** The raw monotonic clock, in nanoseconds from an arbitrary origin. *)

type frame = {
  name : string;
  pass : bool;
  path : string;
      (** pass: its pass ancestors' names and its own, slash-joined
          (["iteration-1/mspf"]), computed at {!push}; [""] otherwise *)
  t0 : int64;
  size0 : int;  (** network size entering; [-1] = unset *)
  depth0 : int;
  gc0 : Gc.stat;
  counters0 : Metrics.snapshot;  (** the registry at open *)
  mutable deadline_fired : bool;  (** watchdog: deadline reported *)
  mutable unique_max : int;  (** pass: max BDD unique-table load *)
  mutable cache_max : int;  (** pass: max computed-cache load *)
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

val pop : frame -> unit
(** Remove the frame and anything still open above it; a frame not on
    the stack is ignored. *)
