(** The one 64-bit mixer: the SplitMix64 finalizer (Steele, Lea,
    Flood 2014) and the golden-ratio combine built on it. Every digest
    of the project — [Aig.fold_hash], [Network.fold_hash], the
    prefilter bank's audit components, the audit-trail chain — and
    {!Rng.next64} use this one copy; [Sbm_truthtable.Tt] repeats
    {!mix2} so that its allocation-free table hashes can inline it. *)

(** [finalize z] is the full-avalanche SplitMix64 finalizer. *)
val finalize : int64 -> int64

(** [mix2 a b] is [finalize (a * 0x9E3779B97F4A7C15 + b)]: folds [b]
    into the running hash [a]. *)
val mix2 : int64 -> int64 -> int64

(** The golden-ratio increment, 0x9E3779B97F4A7C15. *)
val golden : int64
