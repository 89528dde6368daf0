module Aig = Sbm_aig.Aig
module Bdd = Sbm_bdd.Bdd
module Partition = Sbm_partition.Partition
module M = Sbm_obs.Metrics

let m_partitions =
  M.counter ~engine:"diff" ~unit_:"partitions" "diff.partitions"
    "partitions the Boolean-difference engine analyzed"

let m_pairs_tried =
  M.counter ~engine:"diff" ~unit_:"pairs" "diff.pairs_tried"
    "node pairs whose Boolean difference reached the BDD layer \
     (prefilter survivors)"

let m_differences_built =
  M.counter ~engine:"diff" ~unit_:"pairs" "diff.differences_built"
    "Boolean differences whose BDD stayed within budget"

let m_rewrites =
  M.counter ~engine:"diff" ~unit_:"rewrites" "diff.rewrites"
    "accepted difference-based rewrites (zero-gain ones included)"

let m_gain =
  M.counter ~engine:"diff" ~unit_:"nodes" "diff.gain"
    "AIG nodes saved by accepted difference rewrites"

type config = {
  diff : Boolean_difference.config;
  limits : Partition.limits;
  bdd_node_limit : int;
  accept_zero : bool;
  monolithic : bool;
  prefilter : Prefilter.bank option;
}

let default_config =
  {
    diff = Boolean_difference.default_config;
    limits = Partition.default_limits;
    bdd_node_limit = 200_000;
    accept_zero = false;
    monolithic = false;
    prefilter = None;
  }

(* Max pairs tried per node [f] (Section III-B). *)
let max_pairs = 64

type stats = {
  gain : int;
  partitions : int;
  pairs_tried : int; (** pairs that reached the difference computation *)
  differences_built : int; (** differences whose BDD stayed in budget *)
  rewrites : int; (** accepted rewrites (including zero-gain ones) *)
}

type counters = {
  mutable c_pairs : int;
  mutable c_diffs : int;
  mutable c_rewrites : int;
  pf : Prefilter.counts;
}

let zero_counters () =
  { c_pairs = 0; c_diffs = 0; c_rewrites = 0; pf = Prefilter.zero_counts () }

(* Structural filters of Section III-B: the pair must share support,
   and [f] must not lie in the cone of [g] (a difference implementation
   referencing [g] would then feed [f] back into itself). *)
let good_candidates ctx ~f ~g =
  let aig = Bdd_bridge.aig ctx in
  (not (Aig.is_dead aig f))
  && (not (Aig.is_dead aig g))
  && f <> g
  &&
  let man = Bdd_bridge.man ctx in
  match (Bdd_bridge.bdd_of_node ctx f, Bdd_bridge.bdd_of_node ctx g) with
  | Some bf, Some bg -> (
    match (Bdd.support man bf, Bdd.support man bg) with
    | sf, sg ->
      let shared = List.exists (fun v -> List.mem v sg) sf in
      shared && not (Aig.in_tfi aig ~node:f ~root:g)
    | exception Bdd.Limit ->
      Bdd_bridge.bump_limit_bail ctx;
      false)
  | _ -> false

(* Simulation prefilter state for one partition: the store plus two
   canonical-signature indexes. [index] holds every node with a BDD in
   the partition context (members and leaves) and the constant
   signature; [pairs2] holds every 2-leaf AND/OR function (all
   [±l_i ∧ ±l_j] combinations — canonicalization folds the OR forms
   in). A pair survives iff [Boolean_difference.compute] could still
   return [Some]:

   - case a (lines 5-7) needs the difference to exist as a partition
     node [d] — then the difference's function over the leaves equals
     [d]'s (or its complement), so its canonical signature is in the
     index;
   - case b (lines 8-16) needs [size(diff) + xor_cost <= mffc f] with
     the difference BDD's size lower-bounded two ways, taking the max:
     {ul
     {- the signature ladder: an [index] miss certifies the
        difference is not constant and not a ±leaf — exactly the
        functions with BDD size <= 1 — so [size >= 2]; a further
        [pairs2] miss rules out every function whose BDD has exactly
        2 nodes (a 2-node BDD is [if x then ±y else c] in some phase,
        i.e. a 2-leaf AND/OR), so [size >= 3];}
     {- the support bound: a leaf exactly one of [f], [g] depends on
        is necessarily in the support of [f ⊕ g], and a reduced BDD
        carries at least one node per support variable, so
        [size >= |supp f Δ supp g|] (the [supp] table, precomputed
        from the members' already-built BDDs).}}

   A rejected pair therefore provably makes [compute] return [None]:
   skipping it drops only the wasted BDD work, never a rewrite, which
   is what makes the off-vs-on QoR identity a testable property rather
   than a tuning accident. *)
type pair_filter = {
  store : Prefilter.t;
  index : (int64 array, unit) Hashtbl.t;
  pairs2 : (int64 array, unit) Hashtbl.t;
  supp : (int, int list) Hashtbl.t; (* member node -> ascending BDD support *)
}

(* |a Δ b| for ascending lists. *)
let rec delta_size a b =
  match (a, b) with
  | [], rest | rest, [] -> List.length rest
  | x :: a', y :: b' ->
    if x = y then delta_size a' b'
    else if x < y then 1 + delta_size a' b
    else 1 + delta_size a b'

(* Building [pairs2] is O(leaves^2) signatures; beyond this leaf count
   the set is skipped and the ladder stops at [size >= 2] (still
   sound, just a weaker bound). *)
let max_pairs2_leaves = 128

let partition_filter store ctx =
  match store with
  | None -> None
  | Some st ->
    let members = Bdd_bridge.members ctx in
    let leaves = Bdd_bridge.leaves ctx in
    let n = Prefilter.words st in
    let index = Hashtbl.create (4 * (Array.length members + 1)) in
    let add v = Hashtbl.replace index (Prefilter.signature st (Aig.lit_of v false)) () in
    Array.iter add members;
    Array.iter add leaves;
    Hashtbl.replace index (Array.make n 0L) ();
    let k = Array.length leaves in
    let pairs2 = Hashtbl.create (if k <= max_pairs2_leaves then 2 * k * k else 16) in
    if k <= max_pairs2_leaves then begin
      let value = Array.map (fun v -> Array.init n (Prefilter.value st v)) leaves in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          List.iter
            (fun (ci, cj) ->
              let sig_ =
                Array.init n (fun w ->
                    let a = if ci then Int64.lognot value.(i).(w) else value.(i).(w) in
                    let b = if cj then Int64.lognot value.(j).(w) else value.(j).(w) in
                    Int64.logand a b)
              in
              Hashtbl.replace pairs2 (Prefilter.canonical_of_words sig_) ())
            [ (false, false); (false, true); (true, false); (true, true) ]
        done
      done
    end;
    let supp = Hashtbl.create (Array.length members) in
    let man = Bdd_bridge.man ctx in
    Array.iter
      (fun v ->
        match Bdd_bridge.bdd_of_node ctx v with
        | None -> ()
        | Some b -> (
          match Bdd.support man b with
          | s -> Hashtbl.replace supp v s
          | exception Bdd.Limit -> ()))
      members;
    Some { store = st; index; pairs2; supp }

let pair_verdict pf ~saving f g =
  let st = pf.store in
  let n = Prefilter.words st in
  let d =
    Array.init n (fun w ->
        Int64.logxor (Prefilter.value st f w) (Prefilter.value st g w))
  in
  let dc = Prefilter.canonical_of_words d in
  if Hashtbl.mem pf.index dc then Prefilter.Maybe
  else begin
    (* Case a is impossible; case b survives only when [f]'s MFFC can
       pay for the certified lower bound on the difference BDD. *)
    let lb = if Hashtbl.mem pf.pairs2 dc then 2 else 3 in
    let lb =
      match (Hashtbl.find_opt pf.supp f, Hashtbl.find_opt pf.supp g) with
      | Some sf, Some sg -> max lb (delta_size sf sg)
      | _ -> lb
    in
    if lb + Sbm_aig.Synth.xor_cost <= saving then Prefilter.Maybe
    else begin
      let const v =
        let all0 = ref true and all1 = ref true in
        for w = 0 to n - 1 do
          let x = Prefilter.value st v w in
          if x <> 0L then all0 := false;
          if x <> -1L then all1 := false
        done;
        !all0 || !all1
      in
      if const g || const f then Prefilter.Reject_const
      else Prefilter.Reject_signature
    end
  end

(* Analysis/commit loop of one partition. Mutates [aig] (candidate
   cones, commits, traversal marks): parallel workers call this on a
   private snapshot, the sequential path on the live AIG. Returns the
   partition's BDD context so the caller can flush its stats. *)
let run_partition_analysis aig config counters store part total =
  let ctx = Bdd_bridge.build ~node_limit:config.bdd_node_limit aig part in
  let members = Bdd_bridge.members ctx in
  let filter = partition_filter store ctx in
  Array.iter
    (fun f ->
      if Aig.is_and aig f then begin
        let pairs = ref 0 in
        let replaced = ref false in
        (* Case b of the difference computation is only reachable when
           the MFFC of [f] can pay for the certified lower bound on
           the difference implementation plus the XOR; the bound per
           pair comes from the signature ladder in [pair_verdict].
           Exact per [f]: a committed rewrite (the only thing that
           moves MFFCs mid-loop) also ends [f]'s candidate scan. *)
        let saving =
          match filter with None -> max_int | Some _ -> Aig.mffc_size aig f
        in
        Array.iter
          (fun g ->
            if
              (not !replaced)
              && !pairs < max_pairs
              && Aig.is_and aig g
              && good_candidates ctx ~f ~g
            then begin
              (* The pair budget counts every enumerated candidate,
                 filtered or not, so the enumeration (and therefore the
                 committed rewrites) is identical with the prefilter on
                 or off. Only survivors reach [c_pairs] — the public
                 [diff.pairs_tried] measures work sent to the BDD
                 layer. *)
              incr pairs;
              let v =
                match filter with
                | None -> Prefilter.Maybe
                | Some pf ->
                  let v = pair_verdict pf ~saving f g in
                  Prefilter.note counters.pf v;
                  v
              in
              match v with
              | Prefilter.Reject_const | Prefilter.Reject_signature -> ()
              | Prefilter.Maybe -> (
                counters.c_pairs <- counters.c_pairs + 1;
                match Boolean_difference.compute ctx config.diff ~f ~g with
                | None -> ()
                | Some candidate ->
                  counters.c_diffs <- counters.c_diffs + 1;
                  (* Alg. 2 line 13: accept when not larger. *)
                  match Sbm_aig.Local.commit aig ~zero_gain:config.accept_zero f candidate with
                  | Some gain ->
                    total := !total + gain;
                    counters.c_rewrites <- counters.c_rewrites + 1;
                    replaced := true
                  | None -> ())
            end)
          members
      end)
    members;
  ctx

(* Main-domain bookkeeping for a finished partition, shared by the
   sequential path and the parallel merge path (which runs it against
   a worker's context but the live [aig]). *)
let finish_partition aig ctx obs ~index ~rewrites_delta ~pf_rejected =
  Bdd_bridge.flush_stats ~engine:"diff" ctx obs;
  let bails = Bdd_bridge.limit_bails ctx in
  Sbm_obs.partition_done ~bails ~engine:"diff" ~index
    ~structure:(fun () -> Aig.fold_hash aig)
    [ ("members", Array.length (Bdd_bridge.members ctx)); ("bails", bails);
      ("rewrites", rewrites_delta); ("pf_rejected", pf_rejected) ]

let run_partition aig config counters obs store part index total =
  let rewrites0 = counters.c_rewrites in
  let rejected0 = Prefilter.rejected counters.pf in
  let ctx = run_partition_analysis aig config counters store part total in
  finish_partition aig ctx obs ~index
    ~rewrites_delta:(counters.c_rewrites - rewrites0)
    ~pf_rejected:(Prefilter.rejected counters.pf - rejected0)

let optimize_stats ?(obs = Sbm_obs.null) ?(config = default_config) aig =
  (* Difference implementations built from here on are this engine's
     nodes — unless a flow script already set a finer-grained tag. *)
  if (Aig.current_origin aig).Aig.Origin.kind = Aig.Origin.Seed then
    Aig.set_origin aig (Aig.Origin.make ~pass:"boolean-difference" Aig.Origin.Diff);
  let total = ref 0 in
  let counters = zero_counters () in
  let parts =
    if config.monolithic then [ Partition.whole aig ] else Partition.compute aig config.limits
  in
  let store = Option.map (fun bank -> Prefilter.attach bank aig) config.prefilter in
  (* Clean (zero-rewrite) worker analyses merge verbatim — counters,
     prefilter tallies, BDD stats and speculative origin-created
     counts, exactly what the sequential run would have produced;
     anything else is redone on the live AIG. *)
  Sbm_par.Sched.partitions parts
    ~analyze:(fun _ part ->
      Par_merge.on_snapshot aig store (fun snap wstore ->
          let wc = zero_counters () in
          (wc, run_partition_analysis snap config wc wstore part (ref 0))))
    ~clean:(fun ((wc, _), _) -> wc.c_rewrites = 0)
    ~merge:(fun index _ ((wc, ctx), created) ->
      counters.c_pairs <- counters.c_pairs + wc.c_pairs;
      counters.c_diffs <- counters.c_diffs + wc.c_diffs;
      Par_merge.merge_prefilter counters.pf wc.pf;
      Par_merge.merge_created aig created;
      finish_partition aig ctx obs ~index ~rewrites_delta:0
        ~pf_rejected:(Prefilter.rejected wc.pf))
    ~redo:(fun index part ->
      let r0 = counters.c_rewrites in
      run_partition aig config counters obs store part index total;
      counters.c_rewrites > r0);
  Sbm_obs.bump obs m_partitions (List.length parts);
  Sbm_obs.bump obs m_pairs_tried counters.c_pairs;
  Sbm_obs.bump obs m_differences_built counters.c_diffs;
  Sbm_obs.bump obs m_rewrites counters.c_rewrites;
  Sbm_obs.bump obs m_gain !total;
  if store <> None then Prefilter.flush obs counters.pf;
  {
    gain = !total;
    partitions = List.length parts;
    pairs_tried = counters.c_pairs;
    differences_built = counters.c_diffs;
    rewrites = counters.c_rewrites;
  }

let optimize ?obs ?config aig = (optimize_stats ?obs ?config aig).gain

let run ?obs ?config aig =
  let copy = Aig.copy aig in
  let stats = optimize_stats ?obs ?config copy in
  (fst (Aig.compact copy), stats)
