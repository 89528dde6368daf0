module Aig = Sbm_aig.Aig
module Bdd = Sbm_bdd.Bdd
module Obs = Sbm_obs
module Partition = Sbm_partition.Partition
module M = Sbm_obs.Metrics

let m_partitions =
  M.counter ~engine:"mspf" ~unit_:"partitions" "mspf.partitions"
    "partitions the MSPF engine analyzed"

let m_computed =
  M.counter ~engine:"mspf" ~unit_:"functions" "mspf.computed"
    "maximum sets of permissible functions computed"

let m_candidates_examined =
  M.counter ~engine:"mspf" ~unit_:"candidates" "mspf.candidates_examined"
    "substitution candidates that reached the BDD compatibility check \
     (prefilter survivors)"

let m_substitutions =
  M.counter ~engine:"mspf" ~unit_:"substitutions" "mspf.substitutions"
    "accepted permissible-function substitutions"

let m_constant_collapses =
  M.counter ~engine:"mspf" ~unit_:"nodes" "mspf.constant_collapses"
    "nodes collapsed to constants by a permissible function"

let m_gain =
  M.counter ~engine:"mspf" ~unit_:"nodes" "mspf.gain"
    "AIG nodes saved by MSPF substitutions"

type config = {
  limits : Partition.limits;
  bdd_node_limit : int;
  prefilter : Prefilter.bank option;
}

let default_config =
  {
    limits = Partition.default_limits;
    bdd_node_limit = 200_000;
    prefilter = None;
  }

(* Substitute candidates examined per node. *)
let max_candidates = 64

type stats = {
  gain : int;
  partitions : int;
  mspf_computed : int;
  candidates_examined : int;
  substitutions : int;
  constant_collapses : int;
}

(* Mutable accumulator threaded through the partitions. *)
type counters = {
  mutable c_mspf : int;
  mutable c_cands : int;
  mutable c_subst : int;
  mutable c_const : int;
  pf : Prefilter.counts;
}

let zero_counters () =
  { c_mspf = 0; c_cands = 0; c_subst = 0; c_const = 0; pf = Prefilter.zero_counts () }

(* Rebuild the BDDs of the partition cone above [n], reading [n] as
   the free variable [vn]. Returns a lookup giving, for each root, its
   function over leaves + vn, or None if anything overran the budget. *)
let cofactor_functions ctx n vn =
  let aig = Bdd_bridge.aig ctx in
  let man = Bdd_bridge.man ctx in
  let above : (int, Bdd.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace above n vn;
  let lookup v =
    match Hashtbl.find_opt above v with
    | Some b -> Some b
    | None -> Bdd_bridge.bdd_of_node ctx v
  in
  try
    Array.iter
      (fun v ->
        if v <> n && Aig.is_and aig v && not (Aig.is_dead aig v) then begin
          let w0 = Aig.node_of (Aig.fanin0 aig v) in
          let w1 = Aig.node_of (Aig.fanin1 aig v) in
          if Hashtbl.mem above w0 || Hashtbl.mem above w1 then begin
            let fanin_bdd f =
              let w = Aig.node_of f in
              let base = if w = 0 then Some (Bdd.zero man) else lookup w in
              Option.map (fun b -> if Aig.is_compl f then Bdd.mnot man b else b) base
            in
            match (fanin_bdd (Aig.fanin0 aig v), fanin_bdd (Aig.fanin1 aig v)) with
            | Some b0, Some b1 -> Hashtbl.replace above v (Bdd.mand man b0 b1)
            | _ -> raise Bdd.Limit
          end
        end)
      (Bdd_bridge.members ctx);
    Some lookup
  with Bdd.Limit ->
    Bdd_bridge.bump_limit_bail ctx;
    None

(* mspf(n) = conjunction over roots of xnor(f0, f1); bdd(0) means no
   freedom, bdd(1) means the node is unobservable. *)
let compute_mspf ctx n =
  let man = Bdd_bridge.man ctx in
  let nvars = Array.length (Bdd_bridge.leaves ctx) in
  match Bdd.ithvar man nvars with
  | exception Bdd.Limit ->
    Bdd_bridge.bump_limit_bail ctx;
    None
  | vn -> (
  match cofactor_functions ctx n vn with
  | None -> None
  | Some lookup -> (
    try
      let mspf = ref (Bdd.one man) in
      let roots = Bdd_bridge.roots ctx in
      let aig = Bdd_bridge.aig ctx in
      Array.iter
        (fun r ->
          if (not (Bdd.is_zero man !mspf)) && not (Aig.is_dead aig r) then begin
            match lookup r with
            | None -> raise Bdd.Limit
            | Some fr ->
              let f0 = Bdd.restrict man fr nvars false in
              let f1 = Bdd.restrict man fr nvars true in
              (* dc(po) is zero: roots are externally observable. *)
              let insensitive = Bdd.mxnor man f0 f1 in
              mspf := Bdd.mand man !mspf insensitive
          end)
        roots;
      Some !mspf
    with Bdd.Limit ->
      Bdd_bridge.bump_limit_bail ctx;
      None))

(* Search for connectable substitutes: candidates agreeing with [n]
   on the care set.

   With a prefilter store, the acceptance test's simulation shadow
   runs first: connectability is [bv ∧ care = bn ∧ care] (either
   phase), an exact equality over the leaf cut, so any concrete leaf
   assignment where [(v ⊕ n) ∧ care] is 1 in both phases disproves
   it. The care set is rendered to pattern words once per node by
   walking its BDD bit-parallel ({!Bdd.eval_word} at the leaves'
   signatures), and {!Prefilter.compatible_masked} rejects provably
   unconnectable candidates before their two BDD conjunctions are
   built. The candidate budget still counts every examined candidate,
   filtered or not, so the enumeration — and therefore the accepted
   substitutions — is bit-identical with the filter on or off. *)
let connectable ctx counters store n mspf =
  let man = Bdd_bridge.man ctx in
  let aig = Bdd_bridge.aig ctx in
  match Bdd_bridge.bdd_of_node ctx n with
  | None -> []
  | Some bn -> (
    try
      let care = Bdd.mnot man mspf in
      let n_care = Bdd.mand man bn care in
      let leaves = Bdd_bridge.leaves ctx in
      let filt =
        match store with
        | None -> None
        | Some st ->
          let care_words =
            Array.init (Prefilter.words st) (fun w ->
                Bdd.eval_word man care ~leaf:(fun i ->
                    Prefilter.value st leaves.(i) w))
          in
          Some (st, care_words)
      in
      let candidates = ref [] in
      let examined = ref 0 in
      let consider v =
        if
          !examined < max_candidates
          && v <> n
          && (not (Aig.is_dead aig v))
          && not (Aig.in_tfi aig ~node:n ~root:v)
        then begin
          match Bdd_bridge.bdd_of_node ctx v with
          | None -> ()
          | Some bv ->
            incr examined;
            let verdict =
              match filt with
              | None -> Prefilter.Maybe
              | Some (st, care_words) ->
                let verdict =
                  Prefilter.compatible_masked st ~care:care_words
                    (Aig.lit_of n false) (Aig.lit_of v false)
                in
                Prefilter.note counters.pf verdict;
                verdict
            in
            match verdict with
            | Prefilter.Reject_const | Prefilter.Reject_signature -> ()
            | Prefilter.Maybe ->
              counters.c_cands <- counters.c_cands + 1;
              if Bdd.mand man bv care = n_care then
                candidates := Aig.lit_of v false :: !candidates
              else if Bdd.mand man (Bdd.mnot man bv) care = n_care then
                candidates := Aig.lit_of v true :: !candidates
        end
      in
      Array.iter consider leaves;
      Array.iter consider (Bdd_bridge.members ctx);
      (* Constants are permissible substitutes too. *)
      if Bdd.is_zero man n_care then candidates := Aig.const0 :: !candidates
      else if n_care = care then candidates := Aig.const1 :: !candidates;
      !candidates
    with Bdd.Limit ->
      Bdd_bridge.bump_limit_bail ctx;
      [])

(* Members lying in the transitive fanin of a partition leaf: the
   partition is not convex around them, so the leaf-as-free-variable
   model would under-approximate their observability. MSPF skips
   them. *)
let members_in_leaf_cones ctx =
  let aig = Bdd_bridge.aig ctx in
  let tainted = Hashtbl.create 64 in
  let visited = Hashtbl.create 256 in
  let stack = ref [] in
  Array.iter
    (fun leaf -> if Aig.is_and aig leaf then stack := leaf :: !stack)
    (Bdd_bridge.leaves ctx);
  let member_set = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace member_set v ()) (Bdd_bridge.members ctx);
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.add visited v ();
        if Hashtbl.mem member_set v then Hashtbl.replace tainted v ();
        if Aig.is_and aig v then begin
          stack := Aig.node_of (Aig.fanin0 aig v) :: Aig.node_of (Aig.fanin1 aig v) :: !stack
        end
      end
  done;
  tainted

(* Analysis/substitution loop of one partition. Mutates [aig]:
   parallel workers call this on a private snapshot, the sequential
   path on the live AIG. Returns the partition's BDD context. *)
let run_partition_analysis aig config counters store part total =
  let ctx = Bdd_bridge.build ~node_limit:config.bdd_node_limit aig part in
  let tainted = ref (members_in_leaf_cones ctx) in
  let members = Bdd_bridge.members ctx in
  (* Sort by estimated saving: larger MFFCs first (Section IV-C). *)
  let by_saving =
    Array.to_list members
    |> List.filter (fun v -> Aig.is_and aig v)
    |> List.map (fun v -> (Aig.mffc_size aig v, v))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  List.iter
    (fun n ->
      if Aig.is_and aig n && (not (Aig.is_dead aig n)) && not (Hashtbl.mem !tainted n)
      then begin
        match compute_mspf ctx n with
        | None -> ()
        | Some mspf ->
          counters.c_mspf <- counters.c_mspf + 1;
          let man = Bdd_bridge.man ctx in
          if not (Bdd.is_zero man mspf) then begin
            let candidates = connectable ctx counters store n mspf in
            (* Among all connectable fanins, try an irredundant
               subset: the best-gain candidate. *)
            let best =
              List.fold_left
                (fun acc candidate ->
                  if Aig.node_of candidate = n then acc
                  else begin
                    let gain = Aig.gain_of_replacement aig ~root:n ~candidate in
                    match acc with
                    | Some (bg, _) when bg >= gain -> acc
                    | Some _ | None -> Some (gain, candidate)
                  end)
                None candidates
            in
            match best with
            | Some (gain, candidate) when gain > 0 ->
              (* A permissible (not necessarily equivalent)
                 substitution changes the functions of [n]'s fanout
                 cone: invalidate their signatures while the old
                 fanout lists are still in place. *)
              Option.iter (fun st -> Prefilter.note_edit st n) store;
              Aig.replace aig n candidate;
              total := !total + gain;
              counters.c_subst <- counters.c_subst + 1;
              if Aig.node_of candidate = Aig.node_of Aig.const0 then
                counters.c_const <- counters.c_const + 1;
              (* The substitution is permissible but not necessarily
                 equivalence-preserving inside the partition: refresh
                 the cached functions, the member order, the root set
                 and the convexity taint against the new structure. *)
              Bdd_bridge.refresh ctx;
              tainted := members_in_leaf_cones ctx
            | Some _ | None -> ()
          end
      end)
    by_saving;
  ctx

(* Main-domain bookkeeping for a finished partition, shared by the
   sequential path and the parallel merge path. *)
let finish_partition aig ctx obs ~index ~subst_delta ~pf_rejected =
  Bdd_bridge.flush_stats ~engine:"mspf" ctx obs;
  let bails = Bdd_bridge.limit_bails ctx in
  Obs.partition_done ~bails ~engine:"mspf" ~index
    ~structure:(fun () -> Aig.fold_hash aig)
    [ ("members", Array.length (Bdd_bridge.members ctx)); ("bails", bails);
      ("substitutions", subst_delta); ("pf_rejected", pf_rejected) ]

let run_partition aig config counters obs store part index total =
  let subst0 = counters.c_subst in
  let rejected0 = Prefilter.rejected counters.pf in
  let ctx = run_partition_analysis aig config counters store part total in
  finish_partition aig ctx obs ~index
    ~subst_delta:(counters.c_subst - subst0)
    ~pf_rejected:(Prefilter.rejected counters.pf - rejected0)

let optimize_stats ?(obs = Obs.null) ?(config = default_config) aig =
  (* MSPF only substitutes existing literals, but candidate probing
     can still build nodes; tag them unless a flow script already
     set a finer-grained origin. *)
  if (Aig.current_origin aig).Aig.Origin.kind = Aig.Origin.Seed then
    Aig.set_origin aig (Aig.Origin.make ~pass:"mspf" Aig.Origin.Mspf);
  let total = ref 0 in
  let counters = zero_counters () in
  let parts = Partition.compute aig config.limits in
  let store = Option.map (fun bank -> Prefilter.attach bank aig) config.prefilter in
  (* See Diff_resub: clean (zero-substitution) worker analyses merge
     verbatim, the rest are redone on the live AIG. *)
  Sbm_par.Sched.partitions parts
    ~analyze:(fun _ part ->
      Par_merge.on_snapshot aig store (fun snap wstore ->
          let wc = zero_counters () in
          (wc, run_partition_analysis snap config wc wstore part (ref 0))))
    ~clean:(fun ((wc, _), _) -> wc.c_subst = 0)
    ~merge:(fun index _ ((wc, ctx), created) ->
      counters.c_mspf <- counters.c_mspf + wc.c_mspf;
      counters.c_cands <- counters.c_cands + wc.c_cands;
      Par_merge.merge_prefilter counters.pf wc.pf;
      Par_merge.merge_created aig created;
      finish_partition aig ctx obs ~index ~subst_delta:0
        ~pf_rejected:(Prefilter.rejected wc.pf))
    ~redo:(fun index part ->
      let s0 = counters.c_subst in
      run_partition aig config counters obs store part index total;
      counters.c_subst > s0);
  Obs.bump obs m_partitions (List.length parts);
  Obs.bump obs m_computed counters.c_mspf;
  Obs.bump obs m_candidates_examined counters.c_cands;
  Obs.bump obs m_substitutions counters.c_subst;
  Obs.bump obs m_constant_collapses counters.c_const;
  Obs.bump obs m_gain !total;
  if store <> None then Prefilter.flush obs counters.pf;
  {
    gain = !total;
    partitions = List.length parts;
    mspf_computed = counters.c_mspf;
    candidates_examined = counters.c_cands;
    substitutions = counters.c_subst;
    constant_collapses = counters.c_const;
  }

let optimize ?obs ?config aig = (optimize_stats ?obs ?config aig).gain

let run ?obs ?config aig =
  let copy = Aig.copy aig in
  let stats = optimize_stats ?obs ?config copy in
  (fst (Aig.compact copy), stats)
