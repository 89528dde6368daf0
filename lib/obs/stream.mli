(** The in-flight record stream of an SBM run (DESIGN.md §9).

    Each boundary appends one typed {!record}: a pass starts or ends, a
    partition or a gradient round is done, an engine notes something
    (a BDD bail, a SAT restart storm), or the watchdog gives a verdict.
    One sequence and one clock; the views read the same records:
    - the {e recorder} is the bounded tail, a ring that keeps verdicts
      when it wraps; the heartbeat counts it and a crash dump holds it;
    - the {e trail} is the {!link}s of the pass-end and merge records,
      each with a chain that commits to the whole prefix, written one
      JSON line each to the trail's file and aligned by [sbm audit];
    - the watchdog's record rules see each record as it is appended.

    Off by default, it costs one branch per boundary: callers check
    {!on} (pass ends, merges) or {!recorder_on} (the records only the
    recorder keeps) before they build a record. A record no view keeps
    takes no sequence number. On a worker domain under [Sbm_obs.capture],
    {!append} defers the record to the shard and [Sbm_obs.replay]
    pushes it on the main domain, in an order the scheduler cannot
    perturb, so the trail is bit-identical at any [--jobs]. *)

type severity = Debug | Info | Warn | Error

type kind =
  | Note
  | Pass_start
  | Pass  (** a pass ends: a trail boundary *)
  | Merge  (** a partition is done: a trail boundary *)
  | Round  (** a gradient round is done *)
  | Verdict  (** engine ["watchdog"], id = the rule *)

val severity_to_string : severity -> string
val kind_to_string : kind -> string

(** A boundary's audit-trail entry. *)
type link = {
  index : int;  (** position in the trail, from 0 *)
  boundary : kind;  (** [Pass] or [Merge], the kind of its record *)
  label : string;
      (** the innermost open pass frame's path, e.g.
          ["iteration-1/mspf"]; a merge appends
          ["/<engine>-partition-<n>"] *)
  structure : int64;  (** structural hash of the live network *)
  counters_digest : int64;  (** digest of [counters] *)
  bank : int64;  (** prefilter bank digest; [0L] = no bank *)
  seeds : int64;  (** prefilter bank seeds; [0L] = no bank *)
  chain : int64;  (** commits to every prior link *)
  counters : (string * int) list;
      (** the nonzero counter deltas since the trail started, by name *)
}

type record = {
  seq : int;  (** position in the stream since it opened *)
  t_ns : int64;  (** time since the stream opened, to the microsecond *)
  kind : kind;
  severity : severity;
  engine : string;  (** ["flow"], ["gradient"], ["bdd"], ... *)
  id : string;  (** pass / partition / round id, [""] when n/a *)
  message : string;
  metrics : (string * int) list;  (** in emission order *)
  link : link option;  (** on boundaries while the trail is on *)
}

(** {1 Views and clock} *)

val on : unit -> bool
(** The recorder or the trail is on. The stream opens when one starts
    while neither runs: the sequence restarts at 0, the clock at now. *)

val enable_recorder : ?capacity:int -> unit -> unit
(** A fresh, empty ring of [capacity] records (default 512, at least
    16). *)

val recorder_on : unit -> bool

val enable_trail : ?path:string -> unit -> unit
(** Start the trail with an empty chain and counter deltas taken from
    now. With [path], each link is also written to the file, flushed
    per record so a crashed run keeps its prefix.
    @raise Sys_error if [path] cannot be opened. *)

val close : unit -> unit
(** Switch both views off, close the trail's file and forget the bank
    source. *)

val set_bank_source : (unit -> int64 * int64) option -> unit
(** The provider of a link's (bank, seeds) components; [Flow] points it
    at the live prefilter bank. [None] gives [0L] for both. *)

val inject : (string * int) option ref
(** Test hook, initially [SBM_NONDET_INJECT=pass:N]: [Some (pass, n)]
    XOR-perturbs the structure component of the merge links of
    partition [n] of passes (or engines) named [pass], a planted
    divergence. *)

val elapsed_ns : unit -> int64
(** Time since the stream last opened (since the program started, if it
    never did). Status samples use this clock too. *)

val t0_ns : unit -> int64
(** The absolute monotonic reading at which the stream opened. *)

(** {1 Appending} *)

val append :
  ?kind:kind ->
  ?severity:severity ->
  ?id:string ->
  ?metrics:(string * int) list ->
  ?structure:(unit -> int64) ->
  engine:string ->
  string ->
  unit
(** [append ~engine message] adds a record ([kind] defaults to [Note],
    [severity] to [Info]). A pass-end or merge record gets a link while
    the trail is on, and only then is [structure] asked for (default
    [0L]); a merge's [id] is ["partition-<n>"]. No-op when off. *)

val react : (record -> unit) ref
(** Called with each appended record once the views hold it; the
    watchdog installs its record rules here while armed. *)

(** {1 Reading} *)

val is_verdict : record -> bool

val events : unit -> record list
(** The recorder's records, oldest first: the verdicts the ring
    overwrote, then the ring. *)

val capacity : unit -> int
(** Ring capacity; [0] when the recorder is off. *)

val recorded : unit -> int
(** Records the recorder has seen, overwritten ones included. *)

val dropped : unit -> int
(** Of those, the ones {!events} no longer holds. *)

val verdicts : unit -> int
(** Verdicts the recorder has seen. *)

val trail : unit -> link list
(** The trail, in order. *)

val chain : unit -> int64
(** The latest link's chain value; [0L] while the trail is off. *)

(** {1 JSON: the one writer and reader} *)

val buf_link : Buffer.t -> link -> unit
(** A trail line, the ["link"] object of DESIGN.md §9 (its ["seq"] is
    the link's [index]; no ["counter_values"] when there are none). *)

val link_of_json : Json.t -> link option
(** Inverse of {!buf_link}; [None] without a [seq], a pass or merge
    [kind] and a [label], or with a component (absent: 0) not in hex. *)

val buf_record : Buffer.t -> record -> unit
(** A record as DESIGN.md §9 shows it, its link by {!buf_link}; [t_ms]
    holds [t_ns] exactly. *)

val record_of_json : Json.t -> record
(** Inverse of {!buf_record}. A record without ["kind"] (dump versions
    1 and 2) takes it from its engine and message; missing event fields
    read as defaults. *)

val load_trail : string -> (link list, string) result
(** The links of a JSON-lines file, skipping unparsable (torn) lines.
    [Error] only for an unreadable file. *)
