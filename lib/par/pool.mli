(** Worker domains for partition-parallel analysis, scoped to one
    batch.

    A pool is a job count. Each {!run} spawns at most [jobs - 1]
    helper domains (the calling domain works too) and joins them before
    it returns, so no domain is alive between batches. With [jobs = 1]
    no domain is spawned and {!run} is a plain sequential
    [Array.init] — the exact code path of a non-parallel build, so
    sequential runs are bit-identical by construction. *)

type t

(** [create ~jobs] is a pool of [jobs] domains, the caller included.
    Raises [Invalid_argument] if [jobs < 1]. *)
val create : jobs:int -> t

(** [run t n f] evaluates [f 0 .. f (n-1)] on [min jobs n] domains and
    returns the results in index order. Job indices are claimed
    dynamically, so jobs may execute in any order and on any domain;
    [f] must only touch data private to its index or immutable shared
    state.

    If any job raises, remaining unstarted jobs are skipped and the
    exception of the lowest failing index is re-raised (with its
    backtrace) on the calling domain after the batch drains. *)
val run : t -> int -> (int -> 'a) -> 'a array

(** [global ()] is the pool of the partition engines, sized from
    {!Jobs.get}. *)
val global : unit -> t
