(** The shared driver of the AIG-local passes.

    Rewriting, refactoring and resubstitution (the paper's resynthesis
    script, Section V-A, and the gradient engine's moves) all walk the
    AND nodes once in topological order, build candidate replacements
    for each node into the live AIG, keep the best and commit it on
    exact gain. This module owns that walk, the candidate lifecycle
    and the commit rule; each pass supplies only a candidate
    generator. *)

(** {1 Windows} *)

(** A reconvergence-driven window of a root node: its cut and the
    functions of the root's cone over it. *)
type window = {
  aig : Aig.t;
  leaves : int array;  (** sorted; variable [i] is [leaves.(i)] *)
  tts : (int, Sbm_truthtable.Tt.t) Hashtbl.t;
      (** node -> function over [leaves], for the leaves, the constant
          node and every node of the root's cone, inserted in that
          order (the cone fanin0 before fanin1, a node after its
          fanins) *)
}

(** [window aig v ~max_leaves] cuts [v] with a reconvergence-driven cut
    of at most [max_leaves] leaves and evaluates [v]'s cone over it.
    Returns the window and [v]'s function, or [None] when the cut has
    fewer than two leaves or more than {!Sbm_truthtable.Tt.max_vars}. *)
val window : Aig.t -> int -> max_leaves:int -> (window * Sbm_truthtable.Tt.t) option

(** {1 Commit and walk} *)

(** [commit aig ~zero_gain root candidate] replaces [root] by the built
    [candidate] when its exact gain is positive (or zero with
    [zero_gain]) and returns [Some gain]. Otherwise it releases the
    candidate's dangling cone and returns [None]; a candidate that is
    [root] or contains it is always rejected, since committing it
    would close a cycle. *)
val commit : Aig.t -> zero_gain:bool -> int -> Aig.lit -> int option

(** [run ~zero_gain candidates aig] visits every live AND [v] of the
    topological order taken at entry and forces [candidates aig v] one
    candidate at a time. Each candidate is judged before the next is
    built: the best so far stays pinned, losers are released. The
    winner goes through {!commit}. Returns the total gain. *)
val run : zero_gain:bool -> (Aig.t -> int -> Aig.lit Seq.t) -> Aig.t -> int
