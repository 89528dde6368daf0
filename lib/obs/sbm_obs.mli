(** Tracing and metrics for the SBM engines.

    A {!trace} collects a forest of hierarchical {!span}s. Each span
    records a name, monotonic-clock wall time, optional network
    size/depth before and after, and its own counters (BDD unique-table
    traffic, SAT decisions/conflicts/propagations, resubstitution
    candidates tried vs. accepted, gradient move costs, ...). Engines
    receive a span through their optional [?obs] argument; the flow
    scripts open one pass span per scripted pass.

    An open span is a frame on the one process-global {!Span_stack}.
    Counters live only in the {!Metrics} registry: a span snapshots the
    registry when it opens, and its own counters are its registry delta
    minus its children's. A counter a span bumped by 0 is still
    listed.

    Observability is disabled by default and designed to cost nothing
    when off: {!null} is a no-op sink, every operation on it returns
    immediately, and callers guard expensive measurements (network
    depth is O(n)) behind {!enabled}.

    Reporters render a finished trace as a human-readable tree
    ({!pp}), a nested JSON document ({!to_json}), JSON-lines with one
    flattened span per line ({!to_jsonl}), or CSV ({!to_csv}).
    {!write} picks the format from the file extension. The JSON schema
    is documented in DESIGN.md (section "Telemetry"). *)

module Flight_recorder = Flight_recorder
(** In-flight bounded ring buffer of structured events; see
    {!Flight_recorder}. *)

module Watchdog = Watchdog
(** Threshold evaluation, heartbeats and graceful aborts; see
    {!Watchdog}. *)

module Metrics = Metrics
(** Process-global typed metrics registry (counters/gauges/histograms
    with name/kind/unit/engine/description metadata); see {!Metrics}.
    It is the only counter store: spans report registry deltas. *)

module Status = Status
(** Periodic sampler writing an atomic-rename JSONL status file from
    the registry + {!Span_stack} + watchdog state; see {!Status}. *)

module Ledger = Ledger
(** Per-pass resource ledger: one row per completed flow pass with
    QoR deltas, counter deltas, GC/heap samples and occupancy gauges;
    see {!Ledger}. *)

module Fingerprint = Fingerprint
(** Determinism audit trail: chained 64-bit state fingerprints at
    every pass and partition-merge boundary, streamed as JSONL and
    aligned by `sbm audit`; see {!Fingerprint}. *)

module Span_stack = Span_stack
(** The one process-global stack of open spans; see {!Span_stack}. *)

module Json_out = Json_out
(** The JSON writer every emitter shares; see {!Json_out}. *)

type trace
(** A collector of closed spans. *)

type span
(** A handle on an open span, or the no-op sink {!null}. *)

(** [monotonic_ns ()] is the raw monotonic clock, in nanoseconds from
    an arbitrary origin. *)
val monotonic_ns : unit -> int64

(** {1 Collection} *)

(** The no-op sink: spans opened under it are no-ops. This is the
    default [?obs] everywhere. *)
val null : span

(** [enabled s] is [false] exactly on {!null} and spans derived from
    it. Guard measurement work (e.g. [Aig.depth]) with this. *)
val enabled : span -> bool

(** [create ()] is a fresh, empty trace. *)
val create : unit -> trace

(** [root trace name] opens a top-level span. [size]/[depth] record
    the network entering the span. A root starts a fresh
    {!Span_stack}: frames a crashed run left open are dropped. *)
val root : ?size:int -> ?depth:int -> trace -> string -> span

(** [span parent name] opens a child span; on {!null} it returns
    {!null}. [size]/[depth] record the network entering the span. *)
val span : ?size:int -> ?depth:int -> span -> string -> span

(** [close span] stops the span's clock and takes it, with anything
    still open above it, off the {!Span_stack}; [size]/[depth] record
    the network leaving the span. Closing {!null} or closing twice is a
    no-op (the first close wins). *)
val close : ?size:int -> ?depth:int -> span -> unit

(** [bump span m n] adds [n] to the registered counter [m]. The
    {!Metrics} registry is the only counter store: every open span sees
    the bump in its registry delta, and the innermost one reports it as
    its own. A bump on {!null} counts all the same, so counters never
    depend on tracing. Inside {!Metrics.capture} the bump lands in the
    worker shard for deterministic replay. *)
val bump : span -> Metrics.t -> int -> unit

(** {1 Pass spans}

    [Flow.pass] opens one {!pass} span per scripted pass and closes it
    with {!close_pass}. Both are no-ops on {!null}. The pass-boundary
    consumers hang off these two calls: the flight recorder's pass
    events, the audit-trail record, the ledger row, the watchdog's
    abort reset and the pass gauges ([process.live_aig_nodes],
    [flow.pass_ms], [process.peak_heap_words]). *)

(** [observing ()] is whether a pass-boundary consumer is on (ledger,
    audit trail, watchdog, flight recorder or status sampler). A flow
    that is observed but was handed {!null} opens a root of its own, so
    the consumers always read one span stack. *)
val observing : unit -> bool

(** [pass ~size ~depth parent name] opens a pass span: a child span
    flagged as a pass on {!Span_stack}. *)
val pass : size:int -> depth:int -> span -> string -> span

(** [close_pass ~size ~depth sp] closes a pass span. In order: the
    audit trail records the boundary ([structure ()] is the network's
    structural hash, asked for only when the trail is on); the span
    stops; the ledger projects its row from the span ([qor ()] gives
    LUT count and levels, asked for only when the ledger is on;
    default [(-1, -1)]); the span leaves the stack. *)
val close_pass :
  size:int ->
  depth:int ->
  ?dead_node_pct:int ->
  ?structure:(unit -> int64) ->
  ?qor:(unit -> int * int) ->
  span ->
  unit

(** [partition_done ?bails ~engine ~index ~structure metrics] is the
    bookkeeping of one finished partition of a partition engine, called
    on the main domain in ascending partition index. In order: a BDD
    engine's limit [bails] feed {!Watchdog.note_partition} (and make
    the event a warning when nonzero); the flight recorder logs a
    ["partition done"] event with [metrics]; the audit trail records
    the merge boundary ([structure ()] is asked for only when the trail
    is on). *)
val partition_done :
  ?bails:int ->
  engine:string ->
  index:int ->
  structure:(unit -> int64) ->
  (string * int) list ->
  unit

(** {1 Introspection}

    A frozen, immutable view of the recorded forest — the input to the
    reporters and to tests. *)

(** Allocation/collection activity while a span was open, from
    [Gc.quick_stat] deltas (open vs. close; spans still open at freeze
    time are measured against the current stat). Words are the
    runtime's [float] word counts; negative deltas (impossible under a
    monotonic GC, but defensively) clamp to 0. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type node = {
  name : string;
  wall_ns : int64;  (** monotonic wall time spent inside the span *)
  size_before : int option;
  size_after : int option;
  depth_before : int option;
  depth_after : int option;
  gc : gc_delta;  (** GC activity inside the span (children included) *)
  counters : (string * int) list;
      (** the span's own registry delta (its delta minus its
          children's), sorted by name *)
  children : node list;  (** in opening order *)
}

(** [spans trace] is the recorded forest, roots in opening order.
    Spans still open are frozen with the current clock. *)
val spans : trace -> node list

(** [totals trace] is the registry delta over the roots — the sum of
    every span's own counters — sorted by name. *)
val totals : trace -> (string * int) list

(** [total trace name] is the aggregate value of one counter (0 if
    never touched). *)
val total : trace -> string -> int

(** {1 Value distributions}

    Spans sharing a name (e.g. the per-partition or per-move child
    spans an engine opens in a loop) form a sample; the histogram view
    summarizes each sample's wall-time distribution. *)

type dist = {
  count : int;
  total_ms : float;
  p50_ms : float;  (** median (nearest-rank) *)
  p90_ms : float;
  max_ms : float;
}

(** [percentile values p] is the nearest-rank [p]-percentile
    ([p] in [0,1]) of an unsorted, non-empty sample. Raises
    [Invalid_argument] on an empty sample or [p] outside [0,1]. *)
val percentile : float array -> float -> float

(** [histograms trace] groups every span in the forest by name and
    summarizes each group's wall time; sorted by span name. *)
val histograms : trace -> (string * dist) list

(** Render {!histograms} as an aligned table. *)
val pp_histograms : Format.formatter -> trace -> unit

(** {1 Reporters} *)

(** Human-readable tree: one line per span with wall time and deltas,
    counters indented underneath. *)
val pp : Format.formatter -> trace -> unit

(** Nested JSON document:
    [{"version":2,"totals":{...},"histograms":{...},"spans":[...]}].
    Version 2 adds the top-level [histograms] object and a per-span
    [gc] object. When live telemetry ran, additive optional keys
    follow: ["samples"] ({!Status} history), ["events"]
    ({!Flight_recorder} ring) and ["verdicts"] ({!Watchdog}) — the
    Perfetto exporter's counter/instant sources. *)
val to_json : trace -> string

(** One JSON object per line, spans flattened depth-first with a
    [path] field ("root/child/grandchild"). *)
val to_jsonl : trace -> string

(** CSV with header
    [path,wall_ms,size_before,size_after,depth_before,depth_after,counters];
    counters are packed as [k=v;k=v]. Cells containing commas, quotes
    or newlines are RFC 4180-quoted; [;]/[=]/[\ ] inside counter names
    are backslash-escaped so the packed cell stays parseable. *)
val to_csv : trace -> string

(** [write trace path] renders by extension: [.jsonl] -> {!to_jsonl},
    [.csv] -> {!to_csv}, anything else -> {!to_json}. *)
val write : trace -> string -> unit

(** {1 QoR snapshots}

    A snapshot is the durable unit of regression tracking: one record
    per benchmark carrying the quality-of-result metrics the paper's
    tables report (AIG size/depth, LUT-6 count/levels), the flow's
    wall time, and the aggregated engine counters of the run.
    [sbm bench] writes one; [Sbm_report] loads and diffs two. *)

module Snapshot : sig
  (** The four QoR columns of Tables I/II. *)
  type qor = { size : int; depth : int; luts : int; levels : int }

  type entry = {
    bench : string;
    size_before : int;
        (** input AIG node count before the flow ran — records the
            effective benchmark scale in the snapshot; -1 when the
            snapshot predates the key *)
    qor : qor;
    wall_ms : float;  (** flow wall time for this benchmark *)
    counters : (string * int) list;  (** trace totals, sorted by name *)
    passes : Ledger.row list;
        (** per-pass ledger rows in completion order; [[]] when the
            ledger was off (pre-ledger snapshots parse as [[]]) *)
  }

  type t = {
    version : int;
    label : string;  (** free-form provenance (git rev, flow, scale) *)
    seed : int;  (** RNG seed the benchmarks were generated with *)
    entries : entry list;  (** sorted by bench name *)
  }

  (** Schema version written by {!make} (currently 1). Readers accept
      any version [<= current_version]. *)
  val current_version : int

  (** Version of the additive per-entry ["passes"] array (the snapshot
      version itself does not change — old readers ignore the key).
      Emitted as a top-level ["passes_version"] member when any entry
      carries rows. *)
  val passes_version : int

  (** [make ?label ?seed entries] is a current-version snapshot with
      entries sorted by benchmark name. *)
  val make : ?label:string -> ?seed:int -> entry list -> t

  val find : t -> string -> entry option

  (** Single-line JSON document:
      [{"version":1,"label":"...","seed":1,"entries":[{"bench":...,
      "size":...,"depth":...,"luts":...,"levels":...,"wall_ms":...,
      "counters":{...}}]}]. *)
  val to_json : t -> string

  (** [write t path] writes {!to_json} plus a trailing newline. *)
  val write : t -> string -> unit
end

(** {1 Crash-dump post-mortems}

    When a run dies — uncaught exception, SIGINT, SIGTERM — the
    post-mortem module freezes the black box into a versioned JSON
    document: the flight recorder's ring buffer (plus how much of it
    was lost to wraparound), the {!Span_stack} at the instant of
    death, every watchdog verdict, and the live counter totals of the
    attached trace. [sbm inspect] renders the dump; the schema is
    documented in DESIGN.md (section "In-flight observability"). *)

module Postmortem : sig
  (** Schema version written by {!to_json} (currently 1). Readers
      accept any version [<= current_version]. *)
  val current_version : int

  (** [configure ?dir ?trace ()] sets the dump directory (default
      ["."]) and attaches the trace whose counter totals the dump
      reports. Unset arguments keep their previous value. *)
  val configure : ?dir:string -> ?trace:trace -> unit -> unit

  (** The single-line JSON post-mortem document:
      [{"version":1,"reason":...,"pid":...,"elapsed_ms":...,"t0_ns":...,
      "span_stack":[{"name":...,"opened_ms":...}],
      "watchdog":[{"rule":...,"detail":...,"action":...,"t_ms":...}],
      "counters":{...},"recorded":N,"dropped":N,"events":[...]}].
      [t0_ns] is the absolute monotonic enable time; each event
      carries both run-relative [t_ms] and absolute [t_ns]. *)
  val to_json : reason:string -> unit -> string

  (** [path ()] is where {!dump} writes:
      [<dir>/sbm-crash-<pid>.json]. *)
  val path : unit -> string

  (** [dump ~reason ()] writes {!to_json} to {!path}. *)
  val dump : reason:string -> unit -> (string, string) result

  (** {!dump} plus a one-line stderr notice (both outcomes). *)
  val report_dump : reason:string -> unit -> unit

  (** [install ?dir ?trace ()] is {!configure} plus SIGINT/SIGTERM
      handlers that dump and exit with the shell convention
      (128 + signal number). *)
  val install : ?dir:string -> ?trace:trace -> unit -> unit
end
