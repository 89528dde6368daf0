module Aig = Sbm_aig.Aig
module Bdd = Sbm_bdd.Bdd
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
   substitutions — is bit-identical with the filter on or off. Only
   survivors reach [cands], the public [mspf.candidates_examined]. *)
let connectable ctx cands store n mspf =
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
      (* The search makes no AIG edit, so one mark of [n]'s transitive
         fanout answers every candidate's cycle test. *)
      let in_tfo = Aig.tfo_mark aig n in
      let candidates = ref [] in
      let examined = ref 0 in
      let consider v =
        if
          !examined < max_candidates
          && v <> n
          && (not (Aig.is_dead aig v))
          && not (in_tfo v)
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
                Prefilter.count verdict;
                verdict
            in
            match verdict with
            | Prefilter.Reject_const | Prefilter.Reject_signature -> ()
            | Prefilter.Maybe ->
              incr cands;
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

(* See the interface. A substitution is permissible but not
   necessarily equivalence-preserving inside the partition, hence the
   refresh and the re-taint after each one. *)
let substitute aig ~leaves ~members ~mspf ~connectable ~refresh ~commit =
  let taint () = Partition.leaf_cone_members aig ~leaves (members ()) in
  let tainted = ref (taint ()) in
  let by_saving =
    Array.to_list (members ())
    |> List.filter (fun v -> Aig.is_and aig v)
    |> List.map (fun v -> (Aig.mffc_size aig v, v))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  let subst = ref 0 and gain = ref 0 in
  List.iter
    (fun n ->
      if Aig.is_and aig n && (not (Aig.is_dead aig n)) && not (Hashtbl.mem !tainted n)
      then
        match mspf n with
        | None -> ()
        | Some m -> (
          let best =
            List.fold_left
              (fun acc candidate ->
                if Aig.node_of candidate = n then acc
                else begin
                  let g = Aig.gain_of_replacement aig ~root:n ~candidate in
                  match acc with
                  | Some (bg, _) when bg >= g -> acc
                  | Some _ | None -> Some (g, candidate)
                end)
              None (connectable n m)
          in
          match best with
          | Some (saved, candidate) when saved > 0 ->
            commit n candidate;
            Aig.replace aig n candidate;
            gain := !gain + saved;
            incr subst;
            refresh ();
            tainted := taint ()
          | Some _ | None -> ()))
    by_saving;
  (!subst, !gain)

(* One partition in the BDD domain. Mutates [aig]: parallel workers
   call this on a private snapshot, the sequential path on the live
   AIG. The partition's counts go to the registry from here, so a
   worker's counts travel in its capture shard. Returns the summary of
   the partition's BDD context, its substitutions and their gain. *)
let analyze aig config store part =
  let ctx = Bdd_bridge.build ~node_limit:config.bdd_node_limit aig part in
  let man = Bdd_bridge.man ctx in
  let computed = ref 0 and cands = ref 0 and consts = ref 0 in
  let subst, gain =
    substitute aig ~leaves:(Bdd_bridge.leaves ctx)
      ~members:(fun () -> Bdd_bridge.members ctx)
      ~mspf:(fun n ->
        match compute_mspf ctx n with
        | None -> None
        | Some m ->
          incr computed;
          if Bdd.is_zero man m then None else Some m)
      ~connectable:(fun n m -> connectable ctx cands store n m)
      ~refresh:(fun () -> Bdd_bridge.refresh ctx)
      ~commit:(fun n candidate ->
        (* Invalidate the signatures of [n]'s fanout cone while the
           old fanout lists are still in place. *)
        Option.iter (fun st -> Prefilter.note_edit st n) store;
        if Aig.node_of candidate = Aig.node_of Aig.const0 then incr consts)
  in
  M.add m_computed !computed;
  M.add m_candidates_examined !cands;
  M.add m_substitutions subst;
  M.add m_constant_collapses !consts;
  M.add m_gain gain;
  (Bdd_bridge.summary ctx, subst, gain)

(* Main-domain bookkeeping for a finished partition, shared by the
   sequential path and the parallel merge path. *)
let finish_partition aig (s : Bdd_bridge.summary) ~index ~substitutions =
  Bdd_bridge.flush_stats ~engine:"mspf" s;
  Sbm_obs.partition_done ~engine:"mspf" ~index
    ~structure:(fun () -> Aig.fold_hash aig)
    [ ("members", s.members); ("bails", s.bails);
      ("substitutions", substitutions) ]

let optimize ?(config = default_config) aig =
  (* MSPF only substitutes existing literals, but candidate probing
     can still build nodes; tag them unless a flow script already
     set a finer-grained origin. *)
  if (Aig.current_origin aig).Aig.Origin.kind = Aig.Origin.Seed then
    Aig.set_origin aig (Aig.Origin.make ~pass:"mspf" Aig.Origin.Mspf);
  let parts = Partition.compute aig config.limits in
  let store = Option.map (fun bank -> Prefilter.attach bank aig) config.prefilter in
  M.add m_partitions (List.length parts);
  (* See Diff_resub: clean (zero-substitution) worker analyses merge
     verbatim, the rest are redone on the live AIG. *)
  let total = ref 0 in
  Sbm_par.Sched.partitions parts
    ~analyze:(fun _ part ->
      Par_merge.on_snapshot aig store (fun snap wstore -> analyze snap config wstore part))
    ~clean:(fun ((_, substitutions, _), _) -> substitutions = 0)
    ~merge:(fun index _ ((summary, _, _), created) ->
      Par_merge.merge_created aig created;
      finish_partition aig summary ~index ~substitutions:0)
    ~redo:(fun index part ->
      let summary, substitutions, gain = analyze aig config store part in
      total := !total + gain;
      finish_partition aig summary ~index ~substitutions;
      substitutions > 0);
  !total

let run ?config aig =
  let copy = Aig.copy aig in
  ignore (optimize ?config copy);
  fst (Aig.compact copy)
