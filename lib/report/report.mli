(** Regression analysis over QoR snapshots.

    This is the consumption side of the telemetry layer: take two
    {!Sbm_obs.Snapshot.t} documents (read by {!Sbm_obs.Snapshot.load}:
    the committed baseline and a fresh [sbm bench] run), compute a
    structured per-benchmark diff of the QoR metrics (AIG size/depth,
    LUT-6 count/levels), wall time and engine counters, classify every
    delta against configurable tolerance thresholds, and render the
    regression table [sbm diff] prints and CI gates on. *)

(** {1 Diffing} *)

(** Classification thresholds, in percent of the baseline value.
    Lower is better for every metric; a delta within [+pct] of the
    baseline is tolerated. Set [time_pct = infinity] to ignore wall
    time entirely (CI machines are not comparable to the baseline
    host). *)
type tolerance = { qor_pct : float; time_pct : float }

(** [{ qor_pct = 2.0; time_pct = 25.0 }] — QoR is deterministic, so
    2 % absorbs only metric coupling (e.g. depth jitter from an equal
    -size result); wall time is noisy, so 25 %. *)
val default_tolerance : tolerance

type verdict =
  | Improved  (** metric decreased *)
  | Unchanged
  | Tolerated  (** increased, within tolerance *)
  | Regressed  (** increased past tolerance *)

(** [worst a b] is the more severe verdict ([Regressed] > [Tolerated]
    > [Unchanged] > [Improved]). *)
val worst : verdict -> verdict -> verdict

type delta = {
  metric : string;  (** "size", "depth", "luts", "levels" or "wall_ms" *)
  old_value : float;
  new_value : float;
  pct : float;  (** 100 * (new - old) / old *)
  verdict : verdict;
}

type counter_delta = { counter : string; old_count : int; new_count : int }

(** [counter_changes a b] is every counter whose value differs between
    the two lists, with its value on each side ([None] = absent), in
    name order. The one counter-list diff: {!diff} and {!diff_passes}
    read an absent counter as 0, [sbm audit] prints it as [-]. *)
val counter_changes :
  (string * int) list ->
  (string * int) list ->
  (string * int option * int option) list

type row = {
  bench : string;
  size_in : (int * int) option;
      (** input AIG node counts (old, new) when both snapshots carry
          [size_before] — shows the effective benchmark scale;
          informational, never part of the verdict *)
  deltas : delta list;  (** size, depth, luts, levels, wall_ms *)
  counter_deltas : counter_delta list;  (** changed counters only *)
  verdict : verdict;  (** worst of [deltas] *)
}

type t = {
  rows : row list;  (** benchmarks present in both snapshots *)
  only_old : string list;  (** dropped benchmarks — counts as regression *)
  only_new : string list;  (** added benchmarks — informational *)
  verdict : verdict;  (** worst row verdict; [Regressed] if [only_old <> []] *)
}

(** [diff ?tolerance ?ignore_time old_snapshot new_snapshot]
    classifies every metric of every benchmark present in both
    snapshots. [ignore_time] (default [false]) drops the wall-time
    row entirely — no verdict, no speedup column in {!pp} — so
    QoR-only gating output is stable across machines. *)
val diff :
  ?tolerance:tolerance ->
  ?ignore_time:bool ->
  Sbm_obs.Snapshot.t ->
  Sbm_obs.Snapshot.t ->
  t

(** {1 Rendering and gating} *)

(** The per-benchmark regression table: one line per metric with old
    and new values, the percent delta and the verdict, plus dropped /
    added benchmarks and a one-line summary. *)
val pp : Format.formatter -> t -> unit

(** Changed engine counters, per benchmark (the "why" behind a QoR
    shift: SAT conflicts, BDD traffic, moves accepted, ...). *)
val pp_counters : Format.formatter -> t -> unit

(** [exit_code d] is 0 unless [d.verdict = Regressed], then 1 — the
    process exit code contract of [sbm diff]. *)
val exit_code : t -> int

val verdict_to_string : verdict -> string
(** ["improved" | "unchanged" | "tolerated" | "regressed"]. *)

(** [to_json d] is the machine-readable diff ([sbm diff --json]):
    [{"verdict":S,"rows":[{"bench":S,"verdict":S,"deltas":[{"metric":S,
    "old":F,"new":F,"pct":F,"verdict":S}...],"counters":[{"counter":S,
    "old":N,"new":N}...]}...],"only_old":[S...],"only_new":[S...]}]. *)
val to_json : t -> string

(** {1 Per-pass differential forensics}

    [sbm diff --per-pass]: align the ledger pass sequences of two
    snapshots and classify each aligned pass on the same verdict
    lattice, localizing a QoR or wall-time delta to the pass (and
    counter deltas) that introduced it.

    Alignment is positional and requires identical [(index, path)]
    sequences; any mismatch — different lengths, renamed or reordered
    passes, rows missing from the new snapshot — is [Regressed]
    (silent realignment could hide the offending pass). An old
    snapshot with no [passes] array predates the ledger and is
    tolerated as [Unchanged]. *)

type pass_row = {
  path : string;
  index : int;
  deltas : delta list;
      (** size, depth, luts/levels when probed on both sides, wall_ms
          unless [ignore_time]; values are the pass's "after" QoR *)
  counter_deltas : counter_delta list;  (** changed per-pass counters *)
  verdict : verdict;
}

type bench_passes = {
  bench : string;
  rows : pass_row list;  (** empty when [note] is set *)
  note : string option;  (** alignment outcome when rows are absent *)
  verdict : verdict;
}

type passes_diff = { benches : bench_passes list; verdict : verdict }

val diff_passes :
  ?tolerance:tolerance ->
  ?ignore_time:bool ->
  Sbm_obs.Snapshot.t ->
  Sbm_obs.Snapshot.t ->
  passes_diff

(** Changed passes only (unchanged passes are counted, not printed);
    Regressed passes include their counter deltas, and the summary
    names every regressing [bench:pass]. *)
val pp_passes : Format.formatter -> passes_diff -> unit

(** 0 unless the overall verdict is [Regressed], then 1. *)
val passes_exit_code : passes_diff -> int

val passes_to_json : passes_diff -> string
