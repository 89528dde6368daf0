module Aig = Sbm_aig.Aig
module Tt = Sbm_truthtable.Tt
module Partition = Sbm_partition.Partition

type config = {
  limits : Partition.limits;
  max_candidates : int;
}

let default_config =
  {
    limits = { Partition.default_limits with max_nodes = 80; max_leaves = Tt.max_vars - 1 };
    max_candidates = 64;
  }

(* Per-partition truth-table context: member functions over the leaf
   variables. Members whose fanins leave the (leaves ∪ members) set
   are absent, like budget-overrun nodes in the BDD bridge. *)
type ctx = {
  aig : Aig.t;
  member_set : (int, unit) Hashtbl.t;
  mutable order : int array;
  mutable roots : int array;
  leaves : int array;
  nvars : int; (* leaves + 1 (the free variable for the node) *)
  tts : (int, Tt.t) Hashtbl.t;
}

let compute_tts ctx =
  Hashtbl.reset ctx.tts;
  ctx.order <- Partition.live_members ctx.aig ctx.member_set;
  ctx.roots <- Partition.live_roots ctx.aig ctx.member_set ctx.order;
  let aig = ctx.aig in
  Array.iteri
    (fun i v -> Hashtbl.replace ctx.tts v (Tt.var ctx.nvars i))
    ctx.leaves;
  Array.iter
    (fun v ->
      let fanin_tt f =
        let w = Aig.node_of f in
        let base =
          if w = 0 then Some (Tt.const0 ctx.nvars) else Hashtbl.find_opt ctx.tts w
        in
        Option.map (fun t -> if Aig.is_compl f then Tt.bnot t else t) base
      in
      match (fanin_tt (Aig.fanin0 aig v), fanin_tt (Aig.fanin1 aig v)) with
      | Some t0, Some t1 -> Hashtbl.replace ctx.tts v (Tt.band t0 t1)
      | _ -> ())
    ctx.order

let build aig part =
  let member_set = Hashtbl.create 128 in
  Array.iter (fun v -> Hashtbl.replace member_set v ()) part.Partition.nodes;
  let nvars = Array.length part.Partition.leaves + 1 in
  let ctx =
    {
      aig;
      member_set;
      order = part.Partition.nodes;
      roots = part.Partition.roots;
      leaves = part.Partition.leaves;
      nvars;
      tts = Hashtbl.create 128;
    }
  in
  compute_tts ctx;
  ctx

(* Root functions over leaves + the free variable modelling node [n]. *)
let cofactor_functions ctx n =
  let aig = ctx.aig in
  let vn = Tt.var ctx.nvars (ctx.nvars - 1) in
  let above : (int, Tt.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace above n vn;
  let lookup v =
    match Hashtbl.find_opt above v with
    | Some t -> Some t
    | None -> Hashtbl.find_opt ctx.tts v
  in
  let ok = ref true in
  Array.iter
    (fun v ->
      if !ok && v <> n && Aig.is_and aig v then begin
        let w0 = Aig.node_of (Aig.fanin0 aig v) in
        let w1 = Aig.node_of (Aig.fanin1 aig v) in
        if Hashtbl.mem above w0 || Hashtbl.mem above w1 then begin
          let fanin_tt f =
            let w = Aig.node_of f in
            let base = if w = 0 then Some (Tt.const0 ctx.nvars) else lookup w in
            Option.map (fun t -> if Aig.is_compl f then Tt.bnot t else t) base
          in
          match (fanin_tt (Aig.fanin0 aig v), fanin_tt (Aig.fanin1 aig v)) with
          | Some t0, Some t1 -> Hashtbl.replace above v (Tt.band t0 t1)
          | _ -> ok := false
        end
      end)
    ctx.order;
  if !ok then Some lookup else None

(* [n]'s permissible set; None when a root function is missing or the
   set is empty (no freedom). *)
let compute_mspf ctx n =
  match cofactor_functions ctx n with
  | None -> None
  | Some lookup -> (
    let vn = ctx.nvars - 1 in
    let mspf = ref (Tt.const1 ctx.nvars) in
    let aig = ctx.aig in
    let ok = ref true in
    Array.iter
      (fun r ->
        if !ok && (not (Tt.is_const0 !mspf)) && not (Aig.is_dead aig r) then begin
          match lookup r with
          | None -> ok := false
          | Some fr ->
            let f0 = Tt.cofactor0 fr vn in
            let f1 = Tt.cofactor1 fr vn in
            mspf := Tt.band !mspf (Tt.bxnor f0 f1)
        end)
      ctx.roots;
    if !ok && not (Tt.is_const0 !mspf) then Some !mspf else None)

let connectable ctx config n mspf =
  let aig = ctx.aig in
  match Hashtbl.find_opt ctx.tts n with
  | None -> []
  | Some tn ->
    let care = Tt.bnot mspf in
    let n_care = Tt.band tn care in
    (* The search makes no AIG edit, so one mark of [n]'s transitive
       fanout answers every candidate's cycle test. *)
    let in_tfo = Aig.tfo_mark aig n in
    let candidates = ref [] in
    let examined = ref 0 in
    let consider v =
      if
        !examined < config.max_candidates
        && v <> n
        && (not (Aig.is_dead aig v))
        && not (in_tfo v)
      then begin
        match Hashtbl.find_opt ctx.tts v with
        | None -> ()
        | Some tv ->
          incr examined;
          if Tt.equal (Tt.band tv care) n_care then
            candidates := Aig.lit_of v false :: !candidates
          else if Tt.equal (Tt.band (Tt.bnot tv) care) n_care then
            candidates := Aig.lit_of v true :: !candidates
      end
    in
    Array.iter consider ctx.leaves;
    Array.iter consider ctx.order;
    if Tt.is_const0 n_care then candidates := Aig.const0 :: !candidates
    else if Tt.equal n_care care then candidates := Aig.const1 :: !candidates;
    !candidates

(* One partition in the truth-table domain, through the BDD engine's
   substitution loop. *)
let run_partition aig config part =
  let ctx = build aig part in
  snd
    (Mspf.substitute aig ~leaves:ctx.leaves
       ~members:(fun () -> ctx.order)
       ~mspf:(compute_mspf ctx)
       ~connectable:(connectable ctx config)
       ~refresh:(fun () -> compute_tts ctx)
       ~commit:(fun _ _ -> ()))

let run ?(config = default_config) aig =
  let limits =
    { config.limits with Partition.max_leaves = min config.limits.Partition.max_leaves (Tt.max_vars - 1) }
  in
  List.fold_left
    (fun total part -> total + run_partition aig config part)
    0 (Partition.compute aig limits)
