module Aig = Sbm_aig.Aig
module Bdd = Sbm_bdd.Bdd
module Partition = Sbm_partition.Partition
module S = Sbm_obs.Stream
module M = Sbm_obs.Metrics

let m_nodes =
  M.counter ~engine:"bdd" ~unit_:"nodes" "bdd.nodes"
    "BDD nodes allocated, summed over per-partition managers"

let m_unique_hits =
  M.counter ~engine:"bdd" "bdd.unique_hits" "unique-table lookup hits"

let m_unique_misses =
  M.counter ~engine:"bdd" "bdd.unique_misses"
    "unique-table lookup misses (fresh node allocations)"

let m_cache_hits =
  M.counter ~engine:"bdd" "bdd.cache_hits" "computed-cache hits"

let m_cache_misses =
  M.counter ~engine:"bdd" "bdd.cache_misses" "computed-cache misses"

let m_limit_bails =
  M.counter ~engine:"bdd" ~unit_:"bails" "bdd.limit_bails"
    "BDD node-budget bail-outs (partition keeps a partial table)"

(* Occupancy gauges, raised via [set_max]: each holds the maximum over
   the partitions flushed since the per-pass ledger last drained it. *)
let m_unique_load_pct =
  M.gauge ~engine:"bdd" ~unit_:"pct" "bdd.unique_load_pct"
    "max open-addressing unique-table load factor since the last pass \
     boundary (doubles at 75)"

let m_cache_load_pct =
  M.gauge ~engine:"bdd" ~unit_:"pct" "bdd.cache_load_pct"
    "max computed-cache slot occupancy since the last pass boundary"

type t = {
  aig : Aig.t;
  man : Bdd.man;
  member_set : (int, unit) Hashtbl.t;
  mutable order : int array; (* live members, current topological order *)
  mutable roots : int array;
  leaves : int array;
  node_bdd : (int, Bdd.t) Hashtbl.t;
  by_bdd : (Bdd.t, int) Hashtbl.t;
  leaf_lits : Aig.lit array;
  mutable bails : int; (* Bdd.Limit bail-outs observed through this ctx *)
}

let man t = t.man

let bump_limit_bail t =
  t.bails <- t.bails + 1;
  if S.recorder_on () then
    S.append ~severity:S.Warn ~engine:"bdd"
      ~metrics:
        [ ("bails", t.bails); ("bdd_nodes", Bdd.num_nodes t.man);
          ("members", Array.length t.order) ]
      "node-budget bail-out"

let bails t = t.bails

(* Integer percentage, 100 when there was no traffic at all. *)
let hit_pct hits misses =
  let total = hits + misses in
  if total = 0 then 100 else 100 * hits / total

(* Per-partition counter flush: raw unique/cache traffic and the
   bail-out count (hit ratios derive from the hits and misses). A cache
   hit-rate collapse under real traffic — the canonical sign of a
   partition whose BDDs blew past locality — also lands in the record
   stream, with this flush's ratios. *)
let flush_stats ?(engine = "bdd") t =
  let bs = Bdd.stats t.man in
  (* The ledger consumes the load gauges through the registry alone. *)
  M.set_max m_unique_load_pct
    (100 * (bs.Bdd.nodes - 2) / bs.Bdd.unique_capacity);
  M.set_max m_cache_load_pct (100 * bs.Bdd.cache_occupied / bs.Bdd.cache_slots);
  M.add m_nodes bs.Bdd.nodes;
  M.add m_unique_hits bs.Bdd.unique_hits;
  M.add m_unique_misses bs.Bdd.unique_misses;
  M.add m_cache_hits bs.Bdd.cache_hits;
  M.add m_cache_misses bs.Bdd.cache_misses;
  M.add m_limit_bails t.bails;
  let cpct = hit_pct bs.Bdd.cache_hits bs.Bdd.cache_misses in
  if
    S.recorder_on ()
    && bs.Bdd.cache_hits + bs.Bdd.cache_misses >= 10_000
    && cpct < 20
  then
    S.append ~severity:S.Warn ~engine
      ~metrics:
        [ ("cache_hit_pct", cpct);
          ("unique_hit_pct", hit_pct bs.Bdd.unique_hits bs.Bdd.unique_misses);
          ("bdd_nodes", bs.Bdd.nodes) ]
      "computed-cache hit-rate collapse"
let aig t = t.aig
let members t = t.order
let leaves t = t.leaves
let roots t = t.roots

let compute_bdds t =
  Hashtbl.reset t.node_bdd;
  Hashtbl.reset t.by_bdd;
  t.order <- Partition.live_members t.aig t.member_set;
  t.roots <- Partition.live_roots t.aig t.member_set t.order;
  let aig = t.aig in
  try
    Array.iteri
      (fun i v ->
        let b = Bdd.ithvar t.man i in
        Hashtbl.replace t.node_bdd v b;
        if not (Hashtbl.mem t.by_bdd b) then Hashtbl.replace t.by_bdd b v)
      t.leaves;
    Array.iter
      (fun v ->
        let fanin_bdd f =
          let w = Aig.node_of f in
          let base = if w = 0 then Some (Bdd.zero t.man) else Hashtbl.find_opt t.node_bdd w in
          Option.map
            (fun b -> if Aig.is_compl f then Bdd.mnot t.man b else b)
            base
        in
        match (fanin_bdd (Aig.fanin0 aig v), fanin_bdd (Aig.fanin1 aig v)) with
        | Some b0, Some b1 -> (
          (* Budget overrun: the node keeps "a BDD of size 0" — i.e.
             stays absent — and the flow continues (paper III-C). *)
          match Bdd.mand t.man b0 b1 with
          | b ->
            Hashtbl.replace t.node_bdd v b;
            if not (Hashtbl.mem t.by_bdd b) then Hashtbl.replace t.by_bdd b v
          | exception Bdd.Limit -> bump_limit_bail t)
        | _ -> ())
      t.order
  with Bdd.Limit ->
    (* Even variable allocation overran: leave the table partial. *)
    bump_limit_bail t

let build ?(node_limit = 1_000_000) aig part =
  let member_set = Hashtbl.create 256 in
  Array.iter (fun v -> Hashtbl.replace member_set v ()) part.Partition.nodes;
  let t =
    {
      aig;
      man = Bdd.create ~node_limit ();
      member_set;
      order = part.Partition.nodes;
      roots = part.Partition.roots;
      leaves = part.Partition.leaves;
      node_bdd = Hashtbl.create 256;
      by_bdd = Hashtbl.create 256;
      leaf_lits = Array.map (fun v -> Aig.lit_of v false) part.Partition.leaves;
      bails = 0;
    }
  in
  compute_bdds t;
  t

let refresh t = compute_bdds t

let bdd_of_node t v = Hashtbl.find_opt t.node_bdd v

let node_of_bdd t b =
  match Hashtbl.find_opt t.by_bdd b with
  | Some v when not (Aig.is_dead t.aig v) -> Some (v, false)
  | _ -> (
    match Bdd.mnot t.man b with
    | nb -> (
      match Hashtbl.find_opt t.by_bdd nb with
      | Some v when not (Aig.is_dead t.aig v) -> Some (v, true)
      | _ -> None)
    | exception Bdd.Limit ->
      bump_limit_bail t;
      None)

let to_aig_lit t b =
  let memo = Hashtbl.create 64 in
  let rec conv b =
    if Bdd.is_zero t.man b then Aig.const0
    else if Bdd.is_one t.man b then Aig.const1
    else
      match Hashtbl.find_opt memo b with
      | Some l -> l
      | None ->
        let v = Bdd.var t.man b in
        let hi = conv (Bdd.high t.man b) in
        let lo = conv (Bdd.low t.man b) in
        let l = Aig.bmux t.aig t.leaf_lits.(v) hi lo in
        Hashtbl.replace memo b l;
        l
  in
  conv b
