(** Synthesis flows (paper Section V-A).

    [baseline] is the conventional algebraic/AIG script standing in
    for "state-of-the-art methods [1]" (a resyn2rs-style sequence of
    balancing, rewriting, refactoring and resubstitution).

    [sbm] is the paper's Boolean resynthesis script: AIG optimization
    (baseline + the gradient engine), heterogeneous elimination for
    kernel extraction on partitioned networks, enhanced MSPF with
    BDDs, Boolean-difference optimization to escape local minima, and
    SAT sweeping + redundancy removal — the whole sequence iterated
    twice with different efforts, every step returning to the AIG
    representation. The paper's collapse & Boolean decomposition on
    reconvergent MFFCs is {!Sbm_aig.Refactor.run}, which the baseline
    script's [refactor]/[refactor -z] steps and the gradient's
    refactor moves already run; it has no pass of its own. Each
    iteration is six passes: [baseline], [gradient], [hetero-kernel],
    [mspf], [boolean-difference], [sat-sweep].

    Every entry point takes an optional telemetry span ([?obs],
    default {!Sbm_obs.null}); with an enabled span each scripted pass
    is recorded as a child span carrying wall time, the size/depth
    delta, and the engine's counters. *)

type effort = Low | High

(** A flow script, the typed form of the CLI's [--flow] argument. *)
type script =
  | Baseline  (** algebraic/AIG baseline script *)
  | Sbm of effort  (** full SBM flow, two iterations *)
  | Gradient  (** gradient engine alone *)
  | Diff  (** Boolean-difference resubstitution alone *)
  | Mspf  (** BDD-based MSPF alone *)

(** All scripts, in the order offered by the CLI. *)
val all : script list

val to_string : script -> string

(** [of_string s] inverts {!to_string} ("baseline", "sbm", "sbm-low",
    "gradient", "diff", "mspf"). *)
val of_string : string -> script option

(** Failure injection for crash-dump testing: [Some n] makes the [n]th
    scripted pass from now raise [Failure], after its telemetry span
    has opened — so a post-mortem dump shows the pass on the open span
    stack. One-shot (reset to [None] when it fires). The
    [SBM_FAIL_AFTER=N] environment variable seeds it once per process,
    for driving a real [sbm] run to a crash. *)
val inject_failure_after : int option ref

(** LUT-6 probe for the per-pass ledger ({!Sbm_obs.Ledger}): maps the
    network and returns [(luts, levels)]. Installed by the CLI — the
    mapper library sits above this one in the dependency order. While
    unset, ledger rows record [-1] for both. *)
val ledger_qor_probe : (Sbm_aig.Aig.t -> int * int) option ref

(** [run ?obs ?explain ?prefilter script aig] dispatches on
    [script]. The input is not modified. [explain], when given,
    receives one {!Gradient.event} per move the gradient engine
    attempts (scripts that never reach the gradient engine emit
    nothing).

    [prefilter] (default [true]) arms the simulation-guided candidate
    prefilter: one {!Prefilter.bank} of {!Sbm_aig.Sim.default_words}
    64-pattern words per input is shared by every
    Boolean engine the script runs, and the SAT passes fold disproving
    counterexamples back into it. The filter is accept-preserving, so
    the optimized network is bit-identical with the prefilter on or
    off — only the [prefilter.*] counters and the engines' candidate
    workloads change. *)
val run :
  ?obs:Sbm_obs.span ->
  ?explain:(Gradient.event -> unit) ->
  ?prefilter:bool ->
  script ->
  Sbm_aig.Aig.t ->
  Sbm_aig.Aig.t

(** [baseline ?obs aig] is the optimized network under the baseline
    script. The input is not modified. *)
val baseline : ?obs:Sbm_obs.span -> Sbm_aig.Aig.t -> Sbm_aig.Aig.t

(** [sbm ?obs ?explain ?effort ?prefilter aig] runs the
    full SBM script (default [High]). The input is not modified. A
    single pattern bank serves both iterations, so counterexamples
    found by iteration-1's SAT passes sharpen iteration-2's
    filtering. *)
val sbm :
  ?obs:Sbm_obs.span ->
  ?explain:(Gradient.event -> unit) ->
  ?effort:effort ->
  ?prefilter:bool ->
  Sbm_aig.Aig.t ->
  Sbm_aig.Aig.t

(** [sbm_once ?obs ?explain ?prefilter aig] is a single iteration of
    the script (the Low-effort half), for runtime-sensitive callers. *)
val sbm_once :
  ?obs:Sbm_obs.span ->
  ?explain:(Gradient.event -> unit) ->
  ?prefilter:bool ->
  Sbm_aig.Aig.t ->
  Sbm_aig.Aig.t
