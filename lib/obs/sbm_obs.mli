(** Tracing and metrics for the SBM engines.

    A {!trace} collects a forest of hierarchical {!span}s. Each span
    records a name, monotonic-clock wall time, optional network
    size/depth before and after, and its own counters (BDD unique-table
    traffic, SAT decisions/conflicts/propagations, resubstitution
    candidates tried vs. accepted, gradient move costs, ...). Only the
    flow scripts (pass and step spans) and the gradient engine (move
    spans) take a span, through [?obs]; other engines just count.

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
    {!write} picks the format from the file extension; {!of_json}
    reads the JSON document back. The JSON schema is documented in
    DESIGN.md (section "Telemetry"). *)

module Stream = Stream
(** The in-flight record stream and its views; see {!Stream}. *)

module Watchdog = Watchdog
(** Thresholds, heartbeats and graceful aborts; see {!Watchdog}. *)

module Metrics = Metrics
(** Process-global typed metrics registry (counters and gauges with
    name/kind/unit/engine/description metadata); see {!Metrics}.
    It is the only counter store: spans report registry deltas. *)

module Status = Status
(** The atomic-rename JSONL status file, sampled by {!poll} from the
    registry + {!Span_stack} + watchdog state; see {!Status}. *)

module Ledger = Ledger
(** Per-pass resource ledger: one row per closed pass with QoR deltas,
    counter deltas, GC/heap samples and occupancy gauges, built at the
    pass's close ({!ledger}); see {!Ledger}. *)

module Span_stack = Span_stack
(** The one process-global stack of open spans; see {!Span_stack}. *)

module Json = Json
(** The one JSON parser and writer; see {!Json}. *)

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

(** [close span] freezes the span, once, into its {!node} and registry
    delta, and takes it, with anything still open above it, off the
    {!Span_stack}; [size]/[depth] record the network leaving the span.
    Spans still open under it freeze with it. Closing {!null} or
    closing twice is a no-op (the first close wins). *)
val close : ?size:int -> ?depth:int -> span -> unit

(** {1 The main-domain poll} *)

(** [poll ()] is the one poll of the in-flight layer: {!Watchdog.poll}
    (time rules, heartbeat), then {!Status.poll} (a sample if due). The
    engines call it at partition and round boundaries; every live span
    calls it at open and close. *)
val poll : unit -> unit

(** {1 Pass spans and partition boundaries}

    Each of these appends one {!Stream} record when the stream is on.
    [Flow.pass] opens a {!pass} span per scripted pass and closes it
    with {!close_pass}, both no-ops on {!null}; the pass gauges are set
    at the same two calls. *)

(** [observing ()]: the stream or the status file is on. A flow that is
    observed but was handed {!null} opens a root of its own, so the
    consumers always read one span stack. *)
val observing : unit -> bool

(** [pass ~size ~depth parent name] opens a pass span (a child span
    flagged as a pass on {!Span_stack}) and appends its [Pass_start]
    record. *)
val pass : size:int -> depth:int -> span -> string -> span

(** [close_pass ~size ~depth sp] closes a pass span. In order: the
    [Pass] record is appended ([structure ()], the network's structural
    hash, is asked for only by the trail); the span freezes as {!close}
    freezes it; the BDD load gauges drain; [qor ()] (LUT count and
    levels, default [(-1, -1)]) is probed; the pass's {!Ledger.row},
    with the trail's chain value as its fingerprint, is appended to the
    trace. Like {!close}, a no-op on a closed span. *)
val close_pass :
  size:int ->
  depth:int ->
  ?dead_node_pct:int ->
  ?structure:(unit -> int64) ->
  ?qor:(unit -> int * int) ->
  span ->
  unit

(** [partition_done ~engine ~index ~structure metrics] appends the
    [Merge] record of a finished partition, on the main domain in
    ascending partition index. A nonzero ["bails"] metric (BDD limit
    bails) makes it a warning; [structure] is as for {!close_pass}. *)
val partition_done :
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
    Closed spans are as they froze at close; spans still open (a crash,
    an in-flight dump) are frozen with the current clock. *)
val spans : trace -> node list

(** [totals trace] is the registry delta over the roots — the sum of
    every span's own counters — sorted by name. *)
val totals : trace -> (string * int) list

(** [total trace name] is the aggregate value of one counter (0 if
    never touched). *)
val total : trace -> string -> int

(** [ledger trace] is the per-pass ledger of the trace: one row per
    closed pass, in completion order, so a nested pass precedes its
    container; a pass that never closed has none. *)
val ledger : trace -> Ledger.row list

(** {1 Value distributions}

    Spans sharing a name (e.g. the per-move child spans the gradient
    opens in a loop) form a sample; {!aggregate} summarizes each
    sample's wall time. It is the one per-name view of a forest: the
    trace's [histograms] block, [sbm bench --histograms] and the
    [sbm profile] hotspots all read it. *)

type dist = {
  count : int;
  total_ms : float;  (** inclusive: nested same-name spans both count *)
  self_ms : float;  (** summed {!self_ms}: sums to the forest's wall time *)
  p50_ms : float;  (** median (nearest-rank) *)
  p90_ms : float;
  max_ms : float;
}

val wall_ms : node -> float

(** [self_ms n] is [wall_ms n] minus its children's, clamped at 0. *)
val self_ms : node -> float

(** [percentile values p] is the nearest-rank [p]-percentile
    ([p] in [0,1]) of an unsorted, non-empty sample. Raises
    [Invalid_argument] on an empty sample or [p] outside [0,1]. *)
val percentile : float array -> float -> float

(** [aggregate forest] groups every span by name (one depth-first
    walk), sorted by name. *)
val aggregate : node list -> (string * dist) list

(** [histograms trace] is [aggregate (spans trace)]. *)
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
    follow: ["samples"] ({!Status} history) and ["events"]
    (the recorder's {!Stream} records, verdicts included) — the
    Perfetto exporter's counter/instant sources. *)
val to_json : trace -> string

(** [of_json s] is the span forest of a trace document:
    [of_json (to_json t) = Ok (spans t)] on a closed trace. A version-1
    span (no [gc] object) reads a zero delta; a newer version, or no
    ["spans"] array, is an [Error]. *)
val of_json : string -> (node list, string) result

(** [of_json_value j] is {!of_json} on an already-parsed document. *)
val of_json_value : Json.t -> (node list, string) result

(** [load path] is {!of_json} on a file (["-"] = stdin); errors name
    the source. *)
val load : string -> (node list, string) result

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
    cec : string option;
        (** equivalence verdict of the output against the input,
            ["proven"] or ["unknown"]; [None] when the snapshot
            predates the key *)
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
      entries sorted by benchmark name and [wall_ms] rounded to the
      microsecond {!to_json} writes. *)
  val make : ?label:string -> ?seed:int -> entry list -> t

  val find : t -> string -> entry option

  (** Single-line JSON document:
      [{"version":1,"label":"...","seed":1,"entries":[{"bench":...,
      "size":...,"depth":...,"luts":...,"levels":...,"wall_ms":...,
      "counters":{...}}]}]. *)
  val to_json : t -> string

  (** [write t path] writes {!to_json} plus a trailing newline. *)
  val write : t -> string -> unit

  (** [of_json s] parses a snapshot document. Accepts any
      [version <= current_version] (missing optional fields default:
      [label ""], [seed 0], [size_before -1], [cec None], [passes []]); rejects
      documents from the future or with malformed entries. *)
  val of_json : string -> (t, string) result

  (** [of_json_value j] parses an already-parsed document (a snapshot
      nested in a history record). *)
  val of_json_value : Json.t -> (t, string) result

  (** [load path] reads and parses a snapshot file ([-] for stdin). *)
  val load : string -> (t, string) result
end

(** {1 Crash-dump post-mortems}

    When a run dies (uncaught exception, SIGINT, SIGTERM), the black
    box is frozen into a versioned JSON document: the recorder's
    {!Stream} records, verdicts included, the {!Span_stack} at the
    instant of death, and the counter totals of the attached trace.
    [sbm inspect] renders it; DESIGN.md §9 has the schema. *)

module Postmortem : sig
  (** [configure ?dir ?trace ()] sets the dump directory (default
      ["."]) and attaches the trace whose counter totals the dump
      reports. Unset arguments keep their previous value. *)
  val configure : ?dir:string -> ?trace:trace -> unit -> unit

  (** One open span at the instant of death. *)
  type frame = { name : string; opened_ms : float  (** since [t0_ns] *) }

  type dump = {
    version : int;
        (** as read; {!to_json} writes 3, where records carry their
            ["kind"] and link. Versions 1 and 2 load; a version-1
            dump's ["watchdog"] verdicts become [Verdict] records. *)
    reason : string;
    pid : int;
    elapsed_ms : float;
    t0_ns : int64 option;
        (** the stream's absolute origin; [None] in dumps that predate
            it *)
    span_stack : frame list;  (** outermost first *)
    counters : (string * int) list;  (** the attached trace's totals *)
    recorded : int;  (** records ever recorded, overwritten ones included *)
    dropped : int;  (** recorded records the dump does not hold *)
    events : Stream.record list;  (** oldest first, verdicts included *)
  }

  (** [capture ~reason ()] freezes the black box, with times rounded to
      the microsecond the document holds, so
      [of_json (to_json d) = Ok d]. *)
  val capture : reason:string -> unit -> dump

  (** The single-line JSON document:
      [{"version":3,"reason":...,"pid":...,"elapsed_ms":...,"t0_ns":"...",
      "span_stack":[{"name":...,"opened_ms":...}],
      "counters":{...},"recorded":N,"dropped":N,"events":[...]}], the
      events written by {!Stream.buf_record} and [t0_ns] as a decimal
      string. *)
  val to_json : dump -> string

  (** Inverse of {!to_json}. [Error]s are one-line: empty input,
      malformed/truncated JSON, missing version, or a newer version. *)
  val of_json : string -> (dump, string) result

  (** [load path] reads and parses a dump file; ["-"] reads stdin. *)
  val load : string -> (dump, string) result

  (** Write the {!capture} to [<dir>/sbm-crash-<pid>.json], with a
      one-line stderr notice of either outcome. *)
  val report_dump : reason:string -> unit -> unit

  (** [install ?dir ?trace ()] is {!configure} plus SIGINT/SIGTERM
      handlers that dump and exit with the shell convention
      (128 + signal number). *)
  val install : ?dir:string -> ?trace:trace -> unit -> unit
end
