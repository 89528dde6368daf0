(** Windowed Boolean resubstitution.

    The classic "resub" move of the gradient engine: rewrite a node as
    a function of up to two divisor nodes already present in its
    window. Candidate divisors are nodes whose structural support lies
    inside the window leaves and which are not in the target's
    transitive fanout; their local functions are collapsed into truth
    tables and matched directly (0-resub) or through one fresh
    AND/OR/XOR gate (1-resub). Gains are exact. *)

(** [run ?zero_gain ?max_leaves ?max_divisors aig] resubstitutes every
    node once; returns the total gain. Defaults: [max_leaves = 8],
    [max_divisors = 40]. *)
val run : ?zero_gain:bool -> ?max_leaves:int -> ?max_divisors:int -> Aig.t -> int
