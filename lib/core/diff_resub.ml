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

(* Each member's ascending BDD support, keyed by node; members whose
   BDD overran the budget are absent. The analysis never refreshes the
   partition's BDDs, so one traversal per member serves every pair it
   is part of. *)
let member_supports ctx =
  let man = Bdd_bridge.man ctx in
  let members = Bdd_bridge.members ctx in
  let supp = Hashtbl.create (Array.length members) in
  Array.iter
    (fun v ->
      Option.iter
        (fun b -> Hashtbl.replace supp v (Bdd.support man b))
        (Bdd_bridge.bdd_of_node ctx v))
    members;
  supp

(* Whether two ascending lists share an element. *)
let rec intersects a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: a', y :: b' -> x = y || if x < y then intersects a' b else intersects a b'

(* Structural filters of Section III-B: the pair must share support,
   and [f] must not lie in the cone of [g] (a difference implementation
   referencing [g] would then feed [f] back into itself). *)
let good_candidates aig supp ~f ~g =
  (not (Aig.is_dead aig f))
  && (not (Aig.is_dead aig g))
  && f <> g
  &&
  match (Hashtbl.find_opt supp f, Hashtbl.find_opt supp g) with
  | Some sf, Some sg -> intersects sf sg && not (Aig.in_tfi aig ~node:f ~root:g)
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
        [size >= |supp f Δ supp g|] (the partition's
        {!member_supports}).}}

   A rejected pair therefore provably makes [compute] return [None]:
   skipping it drops only the wasted BDD work, never a rewrite, which
   is what makes the off-vs-on QoR identity a testable property rather
   than a tuning accident. *)
type pair_filter = {
  store : Prefilter.t;
  index : (int64 array, unit) Hashtbl.t;
  pairs2 : (int64 array, unit) Hashtbl.t;
  supp : (int, int list) Hashtbl.t; (* the partition's [member_supports] *)
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

let partition_filter store ctx supp =
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
   private snapshot, the sequential path on the live AIG. The
   partition's counts go to the registry from here, so a worker's
   counts travel in its capture shard. Returns the summary of the
   partition's BDD context (for the caller's stats flush), its
   committed rewrites and their gain. *)
let analyze aig config store part =
  let ctx = Bdd_bridge.build ~node_limit:config.bdd_node_limit aig part in
  let members = Bdd_bridge.members ctx in
  let supp = member_supports ctx in
  let filter = partition_filter store ctx supp in
  let tried = ref 0 and built = ref 0 and rewrites = ref 0 and gain = ref 0 in
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
              && good_candidates aig supp ~f ~g
            then begin
              (* The pair budget counts every enumerated candidate,
                 filtered or not, so the enumeration (and therefore the
                 committed rewrites) is identical with the prefilter on
                 or off. Only survivors reach [tried] — the public
                 [diff.pairs_tried] measures work sent to the BDD
                 layer. *)
              incr pairs;
              let v =
                match filter with
                | None -> Prefilter.Maybe
                | Some pf ->
                  let v = pair_verdict pf ~saving f g in
                  Prefilter.count v;
                  v
              in
              match v with
              | Prefilter.Reject_const | Prefilter.Reject_signature -> ()
              | Prefilter.Maybe -> (
                incr tried;
                match Boolean_difference.compute ctx config.diff ~f ~g with
                | None -> ()
                | Some candidate ->
                  incr built;
                  (* Alg. 2 line 13: accept when not larger. *)
                  match Sbm_aig.Local.commit aig ~zero_gain:config.accept_zero f candidate with
                  | Some saved ->
                    gain := !gain + saved;
                    incr rewrites;
                    replaced := true
                  | None -> ())
            end)
          members
      end)
    members;
  M.add m_pairs_tried !tried;
  M.add m_differences_built !built;
  M.add m_rewrites !rewrites;
  M.add m_gain !gain;
  (Bdd_bridge.summary ctx, !rewrites, !gain)

(* Main-domain bookkeeping for a finished partition, shared by the
   sequential path and the parallel merge path (which runs it against
   a worker's summary but the live [aig]). *)
let finish_partition aig (s : Bdd_bridge.summary) ~index ~rewrites =
  Bdd_bridge.flush_stats ~engine:"diff" s;
  Sbm_obs.partition_done ~engine:"diff" ~index
    ~structure:(fun () -> Aig.fold_hash aig)
    [ ("members", s.members); ("bails", s.bails);
      ("rewrites", rewrites) ]

let optimize ?(config = default_config) aig =
  (* Difference implementations built from here on are this engine's
     nodes — unless a flow script already set a finer-grained tag. *)
  if (Aig.current_origin aig).Aig.Origin.kind = Aig.Origin.Seed then
    Aig.set_origin aig (Aig.Origin.make ~pass:"boolean-difference" Aig.Origin.Diff);
  let parts =
    if config.monolithic then [ Partition.whole aig ] else Partition.compute aig config.limits
  in
  let store = Option.map (fun bank -> Prefilter.attach bank aig) config.prefilter in
  M.add m_partitions (List.length parts);
  (* A clean (zero-rewrite) worker analysis merges verbatim: its
     counts were replayed from its shard, and its speculative
     origin-created counts fold in here, exactly what the sequential
     run would have produced. Anything else is redone on the live
     AIG. *)
  let total = ref 0 in
  Sbm_par.Sched.partitions parts
    ~analyze:(fun _ part ->
      Par_merge.on_snapshot aig store (fun snap wstore -> analyze snap config wstore part))
    ~clean:(fun ((_, rewrites, _), _) -> rewrites = 0)
    ~merge:(fun index _ ((summary, _, _), created) ->
      Par_merge.merge_created aig created;
      finish_partition aig summary ~index ~rewrites:0)
    ~redo:(fun index part ->
      let summary, rewrites, gain = analyze aig config store part in
      total := !total + gain;
      finish_partition aig summary ~index ~rewrites;
      rewrites > 0);
  !total

let run ?config aig =
  let copy = Aig.copy aig in
  ignore (optimize ?config copy);
  fst (Aig.compact copy)
