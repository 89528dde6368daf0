(** Simulation-guided candidate prefilter (paper Section III-B's
    "functional filtering", generalized after "Simulation-Guided
    Boolean Resubstitution").

    The Boolean engines brute-force large candidate spaces and reject
    almost everything only {e after} an expensive BDD build. This
    module prunes those spaces first with cheap bit-parallel
    simulation signatures: a {!bank} holds the input pattern set
    (seeded random words plus counterexamples folded back from the
    SAT layer), a store {!t} lazily maintains per-node value words
    over one AIG, and {!compatible} renders a typed verdict for a
    candidate pair before any BDD work.

    Soundness contract: a [Reject_*] verdict certifies that the two
    literals {e differ on at least one concrete input pattern} (under
    the care mask, for {!compatible_masked}), hence any exact
    equivalence-style check the engine would have run must also
    reject. [Maybe] promises nothing — survivors still go through the
    full BDD/SAT validation. Filtering is therefore a pure pruning of
    the candidate order: QoR is unchanged wherever the engine's
    acceptance test is an equivalence check, and verdicts depend only
    on node {e functions}, never on evaluation order. *)

(** Verdict of a candidate query, coarsest reason first:
    [Reject_const] — the signatures differ and one side is constant
    across the (care-masked) pattern set; [Reject_signature] — the
    signatures differ; [Maybe] — indistinguishable on every pattern,
    worth the expensive check. *)
type verdict = Reject_const | Reject_signature | Maybe

(** {1 Pattern bank}

    The pattern set shared by a whole flow run: it survives AIG
    rebuilds/compactions (it is keyed by primary-input index, not
    node id) and accumulates counterexamples. *)

type bank

(** [create_bank ()] seeds a bank of {!Sbm_aig.Sim.default_words}
    64-pattern words per input (256 patterns). At most 256
    counterexamples are retained (further refinements still count but
    are dropped). Deterministic: the random-pattern seed is fixed. *)
val create_bank : unit -> bank

(** [refine bank bits] folds a disproving input assignment (indexed
    by primary-input position) into the pattern set, so the false
    positive it witnessed never survives simulation again. *)
val refine : bank -> bool array -> unit

(** [refinements bank] is the number of {!refine} calls so far (the
    [prefilter.cex_refinements] counter). *)
val refinements : bank -> int

(** [bank_digest bank] is a 64-bit digest of the bank's refinement
    state — shape parameters plus every retained counterexample in
    arrival order. The bank component of audit-trail fingerprints
    (DESIGN.md §9): each CEGAR refinement changes the digest at the
    next recorded boundary. *)
val bank_digest : bank -> int64

(** [bank_seeds bank] is the RNG-seed component of audit-trail
    fingerprints: a digest of the fixed seed and the base word count,
    pinning the random-pattern stream identity. *)
val bank_seeds : bank -> int64

(** Networks with at most this many primary inputs are simulated on
    {e every} input assignment instead of the bank's random patterns:
    the signature becomes the node's full truth table and every
    verdict (and every signature-index existence check built on top)
    is exact. 11 inputs = 2048 patterns = 32 words per node.
    Counterexample refinement is a no-op for such networks — every
    assignment is already present. *)
val exhaustive_max_inputs : int

(** [input_words bank num_inputs] renders the pattern set as packed
    simulation input words — one [int64 array] of per-input words per
    64-pattern round: the seeded base words first, then the
    counterexample words (missing bits and inputs beyond a
    counterexample's width read as 0 — a real all-zero assignment, so
    no masking is ever needed). Networks at or below
    {!exhaustive_max_inputs} inputs get the exhaustive pattern set
    instead. These are the patterns a signature store simulates
    ({!attach}); SAT sweeping draws its own. *)
val input_words : bank -> int -> int64 array array

(** {1 Signature store} *)

(** A signature store over one AIG: per-node value words under the
    bank's patterns, computed eagerly at attach and lazily after
    edits. Node ids are never reused by the AIG, so the store grows
    monotonically with fresh nodes. *)
type t

(** [attach bank aig] simulates [aig] under the bank's current
    patterns and returns a store. *)
val attach : bank -> Sbm_aig.Aig.t -> t

(** [words t] is the number of 64-pattern value words per node. *)
val words : t -> int

(** [value t v w] is node [v]'s value word [w], recomputing invalid
    or fresh cones on demand. *)
val value : t -> int -> int -> int64

(** [lit_value t l w] is {!value} of [l]'s node, complemented as [l]
    demands. *)
val lit_value : t -> Sbm_aig.Aig.lit -> int -> int64

(** [note_edit t n] invalidates [n] and its transitive fanout cone.
    Must be called {e before} a function-changing edit at [n] (e.g.
    an MSPF don't-care substitution), while the old fanout lists are
    still in place. Equivalence-preserving rewrites never need it. *)
val note_edit : t -> int -> unit

(** [signature t l] is [l]'s full signature, canonicalized so a
    literal and its complement share a key (first pattern bit clear);
    the returned array is fresh. With {!canonical_of_words} (same
    canonicalization applied to raw words) it builds the
    divisor-signature indexes the engines use for existence checks. *)
val signature : t -> Sbm_aig.Aig.lit -> int64 array

val canonical_of_words : int64 array -> int64 array

(** {1 Verdicts} *)

(** [compatible t a b] compares two literals over the full pattern
    set. *)
val compatible : t -> Sbm_aig.Aig.lit -> Sbm_aig.Aig.lit -> verdict

(** [compatible_masked t ~care a b] compares only where the care
    words have bits set, and accepts either phase of [b]: [Maybe] iff
    [b] or [¬b] agrees with [a] on every care pattern (the
    simulation necessary-condition of MSPF's connectable check).
    [care] must have {!words}[ t] elements. *)
val compatible_masked :
  t -> care:int64 array -> Sbm_aig.Aig.lit -> Sbm_aig.Aig.lit -> verdict

(** {1 Counters} *)

(** [count verdict] bumps the verdict's registry counter:
    [prefilter.survivors] for [Maybe], [prefilter.rejected_const] or
    [prefilter.rejected_signature] for a rejection. The engines count
    each verdict where they render it. *)
val count : verdict -> unit

(** Registered handle for [prefilter.cex_refinements], bumped by the
    flow's sat-sweep pass as counterexamples refine the bank. *)
val m_cex_refinements : Sbm_obs.Metrics.t
