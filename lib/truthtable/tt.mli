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

(** [xor_hash a b] is {!hash} of [a xor b] up to complement: the hash
    of whichever of [a xor b] and its complement has bit 0 clear, so
    tables whose XOR agrees up to complement hash equal. One
    allocation-free word pass; neither table is built. *)
val xor_hash : t -> t -> int

(** Imperative hash tables keyed by truth tables, using {!hash} and
    {!equal} (the polymorphic [Hashtbl] machinery walks and hashes the
    underlying boxed words on every probe — measurably hot under the
    synthesis memo tables). *)
module Tbl : Hashtbl.S with type key = t

(** [and_phase ~na a ~nb b] is [(±a) & (±b)], each operand
    complemented per [na]/[nb], built in one allocation. *)
val and_phase : na:bool -> t -> nb:bool -> t -> t

(** The 2-input gate, if any, that gives a target from two operands. *)
type gate = And | Nand | Xor | No_gate

(** [gate_match ~na a ~nb b c] compares the gates over [±a] and [±b]
    (operands complemented per [na]/[nb]) against [c] in one
    allocation-free word pass: [And] if [(±a) & (±b) = c], else [Nand]
    if it equals the complement of [c], else [Xor] if
    [(±a) xor (±b) = c], else [No_gate]. *)
val gate_match : na:bool -> t -> nb:bool -> t -> t -> gate

(** [and_operand d c] says which phases of [d] can be an operand of a
    2-input gate giving [c], as four bits: bit 0 if [c ⊆ d] and bit 1
    if [c ⊆ ¬d] (an AND operand), bit 2 if [¬c ⊆ d] and bit 3 if
    [¬c ⊆ ¬d] (a NAND operand). An AND's output lies inside each of
    its operands, so {!gate_match} can only answer [And] ([Nand]) for
    operands that both have the bit. One allocation-free word pass. *)
val and_operand : t -> t -> int

(** [of_word n w] builds a table on [n <= 6] variables directly from
    its 64-bit value (low [2^n] bits; the rest is ignored). *)
val of_word : int -> int64 -> t

(** [to_word t] is the 64-bit value of a table on at most 6 variables:
    its [2^n] bits, the rest zero, so [to_word (of_word n w)] is [w]
    masked to [2^n] bits. Raises [Invalid_argument] above 6 variables. *)
val to_word : t -> int64

(** [cofactor0 t i] / [cofactor1 t i] fix variable [i] to 0 / 1; the
    result still ranges over [n] variables (it no longer depends on
    [i]). *)
val cofactor0 : t -> int -> t
val cofactor1 : t -> int -> t

(** [drop t i b] fixes variable [i] to [b] and removes it: the result
    ranges over [n - 1] variables, variables above [i] moving down by
    one (half the words of [cofactor0]/[cofactor1]). *)
val drop : t -> int -> bool -> t

(** [split t i] profiles the Shannon split of [t] on variable [i]
    without building the cofactors [f0 = drop t i false] and
    [f1 = drop t i true]; allocation-free. The result packs five flags,
    tested with [split t i land flag <> 0], and the cofactors'
    agreement. *)
val split : t -> int -> int

(** The flags of {!split}: [split_compl] is f0 = ¬f1, [split_f0_zero]
    f0 = 0, [split_f1_zero] f1 = 0, [split_f0_one] f0 = 1 and
    [split_f1_one] f1 = 1. *)
val split_compl : int
val split_f0_zero : int
val split_f1_zero : int
val split_f0_one : int
val split_f1_one : int

(** [split_agreement p] is the number of assignments of the other
    [n - 1] variables on which f0 and f1 agree. *)
val split_agreement : int -> int

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

(** [to_string t] is the hexadecimal rendering, most-significant word
    first (e.g. ["8"] for AND2 on 2 vars). *)
val to_string : t -> string
