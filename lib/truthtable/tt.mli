(** Bit-packed truth tables over up to {!max_vars} variables.

    Truth tables are the cheapest reasoning engine used by the SBM
    framework (paper, Section II-A): inside small windows they provide
    constant-time Boolean operations and equivalence checks, and back
    the refactoring and resubstitution engines.

    A table on [n] variables stores [2^n] function values, bit [i]
    being the value on the input assignment whose binary encoding is
    [i] (variable 0 is the least-significant position). *)

type t

(** Hard limit on the number of variables (word-packing bound). *)
val max_vars : int

(** [num_vars t] is the number of variables of [t]. *)
val num_vars : t -> int

(** [const0 n], [const1 n]: constant functions on [n] variables. *)
val const0 : int -> t
val const1 : int -> t

(** [var n i] is the projection of variable [i] on [n] variables. *)
val var : int -> int -> t

(** Boolean connectives. Both arguments must have equal [num_vars]. *)
val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bxnor : t -> t -> t
val bnor : t -> t -> t

(** [ite c a b] is if-then-else: [c&a | ~c&b]. *)
val ite : t -> t -> t -> t

(** [mux sel a b] is [a] when [sel] is false, [b] when true. *)
val mux : t -> t -> t -> t

(** Structural predicates and comparisons. All are allocation-free
    word loops (never the polymorphic runtime primitives): the
    refactoring engines probe them inside memoized recursions. *)
val equal : t -> t -> bool
val is_const0 : t -> bool
val is_const1 : t -> bool
val hash : t -> int

(** Imperative hash tables keyed by truth tables, using {!hash} and
    {!equal} (the polymorphic [Hashtbl] machinery walks and hashes the
    underlying boxed words on every probe — measurably hot under the
    synthesis memo tables). *)
module Tbl : Hashtbl.S with type key = t

(** Fused gate probes for resubstitution, allocation-free.
    [and_match ~na a ~nb b c] compares [(±a) & (±b)] (operands
    complemented per [na]/[nb]) against [c]: [0] on equal, [1] on
    equal-to-complement, [-1] otherwise. [xor_equal ~na a ~nb b c] is
    true iff [(±a) xor (±b) = c]. *)
val and_match : na:bool -> t -> nb:bool -> t -> t -> int
val xor_equal : na:bool -> t -> nb:bool -> t -> t -> bool

(** [equal_not a b] is [equal a (bnot b)] without the allocation. *)
val equal_not : t -> t -> bool

(** [agreement a b] is [count_ones (bxnor a b)] without the
    allocations: the number of minterms on which the functions
    agree. *)
val agreement : t -> t -> int

(** [of_word n w] builds a table on [n <= 6] variables directly from
    its 64-bit value (low [2^n] bits; the rest is ignored). *)
val of_word : int -> int64 -> t

(** [cofactor0 t i] / [cofactor1 t i] fix variable [i] to 0 / 1; the
    result still ranges over [n] variables (it no longer depends on
    [i]). *)
val cofactor0 : t -> int -> t
val cofactor1 : t -> int -> t

(** [depends_on t i] is true if the function value changes with
    variable [i]. *)
val depends_on : t -> int -> bool

(** [support t] lists the variables the function depends on,
    ascending. *)
val support : t -> int list

(** [count_ones t] is the number of satisfying assignments. *)
val count_ones : t -> int

(** [eval t assignment] evaluates [t]; bit [i] of [assignment] is the
    value of variable [i]. *)
val eval : t -> int -> bool

(** [set_bit t i] / [get_bit t i] access individual minterms; [set_bit]
    is functional (returns a new table). *)
val get_bit : t -> int -> bool
val set_bit : t -> int -> t

(** [of_bits n bits] builds a table on [n] vars from a function giving
    the value of each minterm index. *)
val of_bits : int -> (int -> bool) -> t

(** [random n rng] is a uniformly random table on [n] variables. *)
val random : int -> Sbm_util.Rng.t -> t

(** [expand t n] re-expresses [t] on [n >= num_vars t] variables (the
    new variables are don't-cares). *)
val expand : t -> int -> t

(** [permute t perm] renames variables: new variable [perm.(i)] plays
    the role of old variable [i]. [perm] must be a permutation of
    [0 .. num_vars-1]. *)
val permute : t -> int array -> t

(** [flip t i] negates the polarity of variable [i]. *)
val flip : t -> int -> t

(** [compose t i g] substitutes function [g] (same variable count) for
    variable [i] in [t]. *)
val compose : t -> int -> t -> t

(** Cubes of an SOP cover over truth-table variables: [pos] and [neg]
    are bit masks of positively / negatively appearing variables. *)
type cube = { pos : int; neg : int }

(** [cube_tt n c] is the truth table of cube [c] on [n] variables. *)
val cube_tt : int -> cube -> t

(** [cover_tt n cubes] is the OR of the cubes' tables. *)
val cover_tt : int -> cube list -> t

(** [isop on dc] computes an irredundant sum-of-products cover [c]
    with [on <= c <= on | dc] (Minato-Morreale). The don't-care table
    [dc] must be disjoint from [on] or a superset; precisely the
    requirement is [band on dc] arbitrary, the cover satisfies
    [on <= cover <= bor on dc]. Returns the cube list. *)
val isop : t -> t -> cube list

(** [to_string t] is the hexadecimal rendering, most-significant word
    first (e.g. ["8"] for AND2 on 2 vars). *)
val to_string : t -> string
