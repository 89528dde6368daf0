(** Reduced Ordered Binary Decision Diagrams.

    A from-scratch BDD package in the style of Brace-Rudell-Bryant
    (DAC'90): hash-consed unique table, memoized recursive operations,
    and a configurable node budget. The budget reproduces the paper's
    memory-limit bail-out (Section III-C and IV-C): when an operation
    would allocate past the budget it raises {!Limit}, and callers
    treat the node as having a BDD of size 0 (skip it).

    Managers are cheap; the SBM engines allocate one per partition and
    drop it afterwards, mirroring the paper's per-iteration freeing of
    difference BDDs. Variable order is the identity (the paper performs
    no reordering on partition-sized BDDs). *)

type man
(** A BDD manager: unique table, computed cache, node budget. *)

type t = int
(** A BDD node handle, only meaningful with its manager. *)

exception Limit
(** Raised when the manager's node budget is exhausted. *)

(** [create ?node_limit ()] is a fresh manager. [node_limit] caps the
    total number of allocated nodes (default: unlimited). *)
val create : ?node_limit:int -> unit -> man

(** [num_nodes man] is the number of nodes allocated so far (including
    the two terminals). *)
val num_nodes : man -> int

(** Cumulative manager telemetry, consumed by the [Sbm_obs] spans of
    the Boolean engines. [unique_hits]/[unique_misses] count
    unique-table lookups in [mk] (a miss allocates a node);
    [cache_hits]/[cache_misses] count computed-cache lookups across
    all memoized operations. [unique_capacity] is the current
    open-addressing table size (load factor = (nodes-2) /
    unique_capacity), [cache_slots]/[cache_occupied] the computed
    cache's slot count and the number of slots holding an entry. *)
type stats = {
  nodes : int;
  unique_hits : int;
  unique_misses : int;
  cache_hits : int;
  cache_misses : int;
  unique_capacity : int;
  cache_slots : int;
  cache_occupied : int;
}

(** [stats man] reads the counters (cheap; no reset). *)
val stats : man -> stats

(** Terminals. *)
val zero : man -> t
val one : man -> t

(** [ithvar man i] is the BDD of variable [i] (allocated on demand). *)
val ithvar : man -> int -> t

(** Connectives. All may raise {!Limit}. *)
val mnot : man -> t -> t
val mand : man -> t -> t -> t
val mor : man -> t -> t -> t
val mxor : man -> t -> t -> t
val mxnor : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

(** Predicates. *)
val is_zero : man -> t -> bool
val is_one : man -> t -> bool

(** [var man b] is the top variable of internal node [b]. *)
val var : man -> t -> int

(** [low man b] / [high man b]: cofactor children of an internal
    node. *)
val low : man -> t -> t
val high : man -> t -> t

(** [restrict man b i v] fixes variable [i] to the constant [v]. *)
val restrict : man -> t -> int -> bool -> t

(** [compose man b i g] substitutes [g] for variable [i] in [b]. *)
val compose : man -> t -> int -> t -> t

(** [exists man b vars] existentially quantifies the listed
    variables. *)
val exists : man -> t -> int list -> t

(** [support man b] is the ascending list of variables [b] depends
    on. *)
val support : man -> t -> int list

(** [size man b] is the number of internal nodes reachable from [b]
    (the paper's BDD-size filter operates on this). *)
val size : man -> t -> int

(** [eval_word man b ~leaf] evaluates [b] bit-parallel over 64
    assignments at once: [leaf v] supplies the 64-bit value word of
    variable [v], and bit [i] of the result is [b] evaluated on the
    [i]th bits of the leaf words. Pure graph walk — never allocates
    BDD nodes, so it cannot raise {!Limit}. Drives the simulation
    prefilter's care-set masking. *)
val eval_word : man -> t -> leaf:(int -> int64) -> int64

(** [count_sat man b ~nvars] is the number of satisfying assignments
    over [nvars] variables, as a float (avoids overflow on wide
    supports). *)
val count_sat : man -> t -> nvars:int -> float

(** [eval man b assignment] evaluates [b]; bit [i] of [assignment] is
    variable [i]. *)
val eval : man -> t -> int -> bool

(** [any_sat man b] is one satisfying assignment as an association
    list [(var, value)] over the support, or [None] if [b] is zero. *)
val any_sat : man -> t -> (int * bool) list option

(** [of_tt man tt] converts a truth table into a BDD on the same
    variables; [to_tt man b ~nvars] converts back ([nvars] must be at
    most {!Sbm_truthtable.Tt.max_vars} and cover the support). *)
val of_tt : man -> Sbm_truthtable.Tt.t -> t
val to_tt : man -> t -> nvars:int -> Sbm_truthtable.Tt.t
