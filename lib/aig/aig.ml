module Vec = Sbm_util.Vec
module Itab = Sbm_util.Itab
module Csr = Sbm_util.Csr
module Hash64 = Sbm_util.Hash64

type lit = int

(* Literals are bounded well below 2^31 in practice; pack a sorted
   fanin pair into one non-negative int key for the strash table. *)
let strash_key a b = (a lsl 31) lor b

let lit_of node compl = (node lsl 1) lor (if compl then 1 else 0)
let node_of l = l lsr 1
let is_compl l = l land 1 = 1
let lnot l = l lxor 1
let lpos l = l land -2
let const0 = 0
let const1 = 1

(* Provenance tag: which scripted pass (and which kind of move inside
   it) created a node. Tags are interned per AIG; the per-node side
   table stores small integer ids, so stamping is one array write. *)
module Origin = struct
  type kind =
    | Seed
    | Rewrite
    | Refactor
    | Resub
    | Balance
    | Diff
    | Mspf
    | Kernel
    | Sweep
    | Other

  type t = { pass : string; kind : kind }

  let seed = { pass = "seed"; kind = Seed }

  let make ~pass kind = { pass; kind }

  let kind_to_string = function
    | Seed -> "seed"
    | Rewrite -> "rewrite"
    | Refactor -> "refactor"
    | Resub -> "resub"
    | Balance -> "balance"
    | Diff -> "diff-resub"
    | Mspf -> "mspf"
    | Kernel -> "kernel"
    | Sweep -> "sweep"
    | Other -> "other"

  let kind_of_string = function
    | "seed" -> Some Seed
    | "rewrite" -> Some Rewrite
    | "refactor" -> Some Refactor
    | "resub" -> Some Resub
    | "balance" -> Some Balance
    | "diff-resub" -> Some Diff
    | "mspf" -> Some Mspf
    | "kernel" -> Some Kernel
    | "sweep" -> Some Sweep
    | "other" -> Some Other
    | _ -> None

  let pp fmt o = Format.fprintf fmt "%s(%s)" o.pass (kind_to_string o.kind)
end

(* fanin0.(n) = -1 marks a PI or the constant node (node 0). *)
type t = {
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable nrefs : int array;
  mutable dead : bool array;
  mutable trav : int array;
  (* Adjacency side tables live in packed CSR arenas (one shared int
     buffer each) instead of a Vec.t per node: snapshots blit flat
     arrays instead of re-boxing 2 vectors per node. *)
  fanouts : Csr.t;
  out_uses : Csr.t;
  mutable n : int;
  mutable trav_id : int;
  (* Transitive-fanout marks ([tfo_mark]), stamped apart from [trav]
     so the walks in between leave them intact. Sized on first use. *)
  mutable tfo : int array;
  mutable tfo_id : int;
  mutable num_live_ands : int;
  inputs : Vec.t; (* node ids *)
  outs : Vec.t; (* literals *)
  (* Structural hash: packed fanin pair (a lsl 31) lor b, a < b, to
     node id. Open addressing (Sbm_util.Itab) keeps the [band] probe
     allocation-free. *)
  strash : Sbm_util.Itab.t;
  (* Provenance side tables. [origins.(v)] is the interned id (into
     [origin_defs]) of the origin current when node [v] was allocated;
     id 0 is always [Origin.seed]. [origin_created.(i)] counts the AND
     nodes ever built under origin [i] — including speculative
     candidates later discarded, so live/created is a survival rate.
     [origin_counting = false] during whole-network rebuilds
     (compact/balance/SOP round-trips), which adopt tags instead of
     creating logic. *)
  mutable origins : int array;
  mutable origin_defs : Origin.t array;
  mutable origin_created : int array;
  mutable origin_ids : (Origin.t, int) Hashtbl.t;
  mutable n_origins : int;
  mutable cur_origin : int;
  mutable origin_counting : bool;
  (* Copy-on-write marker for the intern tables ([origin_defs] and
     [origin_ids]): [copy] and [begin_rebuild] share them between both
     networks instead of duplicating, and the first [intern_origin]
     that would mutate a shared table replaces it with a private copy
     first. A table marked shared is frozen — every holder unshares
     before writing — so concurrent readers (per-chunk snapshots in
     the partition scheduler) never observe a mutation. *)
  mutable origins_shared : bool;
}

let create ?(expected = 64) () =
  let cap = max expected 8 in
  let aig =
    {
      fanin0 = Array.make cap (-1);
      fanin1 = Array.make cap (-1);
      nrefs = Array.make cap 0;
      dead = Array.make cap false;
      trav = Array.make cap 0;
      fanouts = Csr.create ~nodes:cap ~slot:2 ();
      out_uses = Csr.create ~nodes:cap ~slot:1 ();
      n = 1;
      trav_id = 0;
      tfo = [||];
      tfo_id = 0;
      num_live_ands = 0;
      inputs = Vec.create ();
      outs = Vec.create ();
      strash = Itab.create ~capacity:1024 ();
      origins = Array.make cap 0;
      origin_defs = Array.make 8 Origin.seed;
      origin_created = Array.make 8 0;
      origin_ids = Hashtbl.create 16;
      n_origins = 1;
      cur_origin = 0;
      origin_counting = true;
      origins_shared = false;
    }
  in
  Hashtbl.add aig.origin_ids Origin.seed 0;
  aig

let num_inputs aig = Vec.size aig.inputs
let num_outputs aig = Vec.size aig.outs
let num_nodes aig = aig.n
let is_dead aig node = aig.dead.(node)
let is_input aig node = node > 0 && aig.fanin0.(node) = -1 && not aig.dead.(node)
let is_and aig node = aig.fanin0.(node) >= 0 && not aig.dead.(node)
let fanin0 aig node = aig.fanin0.(node)
let fanin1 aig node = aig.fanin1.(node)
let nref aig node = aig.nrefs.(node)
let input_lit aig i = lit_of (Vec.get aig.inputs i) false
let output_lit aig i = Vec.get aig.outs i
let outputs aig = Vec.to_array aig.outs

let input_index aig node =
  (* PI nodes are allocated in order; binary search the inputs vector. *)
  let rec go lo hi =
    if lo > hi then invalid_arg "Aig.input_index: not an input"
    else begin
      let mid = (lo + hi) / 2 in
      let v = Vec.get aig.inputs mid in
      if v = node then mid else if v < node then go (mid + 1) hi else go lo (mid - 1)
    end
  in
  go 0 (Vec.size aig.inputs - 1)

let grow aig =
  let cap = Array.length aig.fanin0 in
  let ncap = 2 * cap in
  let ext a fill =
    let a' = Array.make ncap fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  aig.fanin0 <- ext aig.fanin0 (-1);
  aig.fanin1 <- ext aig.fanin1 (-1);
  aig.nrefs <- ext aig.nrefs 0;
  aig.trav <- ext aig.trav 0;
  let dead' = Array.make ncap false in
  Array.blit aig.dead 0 dead' 0 cap;
  aig.dead <- dead';
  Csr.ensure_nodes aig.fanouts ncap;
  Csr.ensure_nodes aig.out_uses ncap;
  aig.origins <- ext aig.origins 0

(* --- provenance --- *)

(* Take private ownership of the intern tables before the first write
   after a copy-on-write share. The shared table is left untouched for
   the other holders. *)
let unshare_origins aig =
  if aig.origins_shared then begin
    aig.origin_defs <- Array.copy aig.origin_defs;
    aig.origin_ids <- Hashtbl.copy aig.origin_ids;
    aig.origins_shared <- false
  end

let intern_origin aig (o : Origin.t) =
  match Hashtbl.find_opt aig.origin_ids o with
  | Some i -> i
  | None ->
    unshare_origins aig;
    if aig.n_origins >= Array.length aig.origin_defs then begin
      let ncap = 2 * Array.length aig.origin_defs in
      let defs = Array.make ncap Origin.seed in
      Array.blit aig.origin_defs 0 defs 0 aig.n_origins;
      aig.origin_defs <- defs;
      let created = Array.make ncap 0 in
      Array.blit aig.origin_created 0 created 0 aig.n_origins;
      aig.origin_created <- created
    end;
    let i = aig.n_origins in
    aig.origin_defs.(i) <- o;
    aig.origin_created.(i) <- 0;
    aig.n_origins <- i + 1;
    Hashtbl.add aig.origin_ids o i;
    i

let set_origin aig o = aig.cur_origin <- intern_origin aig o
let current_origin aig = aig.origin_defs.(aig.cur_origin)

let node_origin aig v =
  if v < 0 || v >= aig.n then invalid_arg "Aig.node_origin";
  aig.origin_defs.(aig.origins.(v))

let set_node_origin aig v o =
  if v < 0 || v >= aig.n then invalid_arg "Aig.set_node_origin";
  aig.origins.(v) <- intern_origin aig o

let note_created aig o count =
  let i = intern_origin aig o in
  aig.origin_created.(i) <- aig.origin_created.(i) + count

let begin_rebuild fresh ~from =
  (* Intern tables are append-only: share them copy-on-write instead
     of duplicating. Both holders are marked shared; whichever interns
     a new origin first takes a private copy. [origin_created] is
     mutated on every node construction, so it stays a real copy. *)
  fresh.origin_defs <- from.origin_defs;
  fresh.origin_created <- Array.copy from.origin_created;
  fresh.origin_ids <- from.origin_ids;
  from.origins_shared <- true;
  fresh.origins_shared <- true;
  fresh.n_origins <- from.n_origins;
  fresh.cur_origin <- from.cur_origin;
  fresh.origin_counting <- false

let end_rebuild fresh = fresh.origin_counting <- true

let alloc aig =
  if aig.n >= Array.length aig.fanin0 then grow aig;
  let node = aig.n in
  aig.n <- node + 1;
  aig.origins.(node) <- aig.cur_origin;
  node

let add_input aig =
  let node = alloc aig in
  Vec.push aig.inputs node;
  lit_of node false

let band aig a b =
  let bad l = node_of l >= aig.n || aig.dead.(node_of l) in
  if bad a || bad b then invalid_arg "Aig.band: dead or invalid literal";
  if a = b then a
  else if a = lnot b then const0
  else if a = const0 || b = const0 then const0
  else if a = const1 then b
  else if b = const1 then a
  else begin
    let a, b = if a < b then (a, b) else (b, a) in
    let key = strash_key a b in
    let hit = Itab.find aig.strash key ~default:(-1) in
    if hit >= 0 then lit_of hit false
    else begin
      let node = alloc aig in
      aig.fanin0.(node) <- a;
      aig.fanin1.(node) <- b;
      aig.nrefs.(node_of a) <- aig.nrefs.(node_of a) + 1;
      aig.nrefs.(node_of b) <- aig.nrefs.(node_of b) + 1;
      Csr.push aig.fanouts (node_of a) node;
      Csr.push aig.fanouts (node_of b) node;
      Itab.replace aig.strash key node;
      aig.num_live_ands <- aig.num_live_ands + 1;
      if aig.origin_counting then
        aig.origin_created.(aig.cur_origin) <-
          aig.origin_created.(aig.cur_origin) + 1;
      lit_of node false
    end
  end

let bor aig a b = lnot (band aig (lnot a) (lnot b))

let bxor aig a b =
  (* a^b = (a & ~b) | (~a & b) *)
  let p = band aig a (lnot b) in
  let q = band aig (lnot a) b in
  bor aig p q

let bxnor aig a b = lnot (bxor aig a b)

let bmux aig sel t e = bor aig (band aig sel t) (band aig (lnot sel) e)

let band_list aig = function
  | [] -> const1
  | x :: xs -> List.fold_left (band aig) x xs

let bor_list aig = function
  | [] -> const0
  | x :: xs -> List.fold_left (bor aig) x xs

let add_output aig l =
  if node_of l >= aig.n || aig.dead.(node_of l) then invalid_arg "Aig.add_output";
  let idx = Vec.size aig.outs in
  Vec.push aig.outs l;
  let v = node_of l in
  aig.nrefs.(v) <- aig.nrefs.(v) + 1;
  Csr.push aig.out_uses v idx;
  idx

(* Release one cone rooted at an unreferenced AND node. *)
let kill_cone aig root =
  let stack = Vec.create () in
  Vec.push stack root;
  while not (Vec.is_empty stack) do
    let v = Vec.pop stack in
    if is_and aig v && aig.nrefs.(v) = 0 then begin
      let f0 = aig.fanin0.(v) and f1 = aig.fanin1.(v) in
      let a, b = if f0 < f1 then (f0, f1) else (f1, f0) in
      let key = strash_key a b in
      if Itab.find aig.strash key ~default:(-1) = v then Itab.remove aig.strash key;
      aig.dead.(v) <- true;
      aig.num_live_ands <- aig.num_live_ands - 1;
      Csr.clear aig.fanouts v;
      List.iter
        (fun f ->
          let w = node_of f in
          Csr.remove aig.fanouts w v;
          aig.nrefs.(w) <- aig.nrefs.(w) - 1;
          if aig.nrefs.(w) = 0 then Vec.push stack w)
        [ f0; f1 ]
    end
  done

let delete_dangling aig node =
  if is_and aig node && aig.nrefs.(node) = 0 then kill_cone aig node

let pin aig l =
  let v = node_of l in
  if aig.dead.(v) then invalid_arg "Aig.pin: dead literal";
  aig.nrefs.(v) <- aig.nrefs.(v) + 1

let unpin ?(collect = true) aig l =
  let v = node_of l in
  aig.nrefs.(v) <- aig.nrefs.(v) - 1;
  if collect && aig.nrefs.(v) = 0 then kill_cone aig v

let set_output aig i l =
  if node_of l >= aig.n || aig.dead.(node_of l) then invalid_arg "Aig.set_output";
  let old = Vec.get aig.outs i in
  let ov = node_of old in
  Vec.set aig.outs i l;
  let v = node_of l in
  aig.nrefs.(v) <- aig.nrefs.(v) + 1;
  Csr.push aig.out_uses v i;
  Csr.remove aig.out_uses ov i;
  aig.nrefs.(ov) <- aig.nrefs.(ov) - 1;
  if aig.nrefs.(ov) = 0 then kill_cone aig ov

(* In-place replacement with cascading structural re-hashing.
   Invariants maintained across the loop:
   - every queued pair (o, nl) has nl's node pinned with one extra
     reference, so merge targets cannot be garbage-collected before
     their turn;
   - once a node's references have been moved, it is recorded in the
     forwarding table, and later queue entries resolve through it, so
     references are never moved onto a dismantled node. *)
(* Traversal id helper (shared by the cone walks below). *)
let new_trav aig =
  aig.trav_id <- aig.trav_id + 1;
  aig.trav_id

(* Live fanouts, deduplicated with a traversal stamp (the fanout
   vector may hold duplicates after rewiring); allocation-free probe
   per entry. *)
let fanout_nodes aig node =
  let id = new_trav aig in
  let trav = aig.trav in
  Csr.fold
    (fun acc fo ->
      if aig.dead.(fo) || trav.(fo) = id then acc
      else begin
        trav.(fo) <- id;
        fo :: acc
      end)
    [] aig.fanouts node

(* The same visit without the list: [fanout_nodes] keeps each node's
   first entry and returns them last to first, so when no live entry
   repeats, the live entries from last to first are that list. One
   stamped pass looks for a repeat, and the rare fanout that has one
   falls back to the list. *)
let iter_fanout_nodes aig node f =
  let id = new_trav aig in
  let trav = aig.trav and dead = aig.dead and fanouts = aig.fanouts in
  let len = Csr.length fanouts node in
  let rec repeats i =
    i < len
    &&
    let fo = Csr.get fanouts node i in
    if dead.(fo) then repeats (i + 1)
    else trav.(fo) = id || begin trav.(fo) <- id; repeats (i + 1) end
  in
  if repeats 0 then List.iter f (fanout_nodes aig node)
  else
    for i = len - 1 downto 0 do
      let fo = Csr.get fanouts node i in
      if not dead.(fo) then f fo
    done

let in_tfi aig ~node ~root =
  let id = new_trav aig in
  let stack = Vec.create () in
  let found = ref false in
  Vec.push stack root;
  while (not !found) && not (Vec.is_empty stack) do
    let v = Vec.pop stack in
    if aig.trav.(v) <> id then begin
      aig.trav.(v) <- id;
      if v = node then found := true
      else if is_and aig v then begin
        Vec.push stack (node_of aig.fanin0.(v));
        Vec.push stack (node_of aig.fanin1.(v))
      end
    end
  done;
  !found

let tfo_mark aig node =
  if Array.length aig.tfo < aig.n then aig.tfo <- Array.make (Array.length aig.fanin0) 0;
  aig.tfo_id <- aig.tfo_id + 1;
  let id = aig.tfo_id and tfo = aig.tfo in
  let stack = Vec.create () in
  tfo.(node) <- id;
  Vec.push stack node;
  while not (Vec.is_empty stack) do
    let u = Vec.pop stack in
    (* A live AND with [u] as a fanin is the edge [in_tfi] walks
       down; checking it keeps the mark exact whatever else the fanout
       list holds. *)
    Csr.iter
      (fun w ->
        if tfo.(w) <> id && is_and aig w
           && (node_of aig.fanin0.(w) = u || node_of aig.fanin1.(w) = u)
        then begin
          tfo.(w) <- id;
          Vec.push stack w
        end)
      aig.fanouts u
  done;
  fun v -> v < Array.length tfo && tfo.(v) = id

let replace aig root lit =
  if not (is_and aig root) then invalid_arg "Aig.replace: root must be a live AND";
  if node_of lit >= aig.n || aig.dead.(node_of lit) then invalid_arg "Aig.replace: dead literal";
  if node_of lit = root then invalid_arg "Aig.replace: self-replacement";
  (* The replacement cone must not contain the root: structural
     hashing can silently rebuild the root inside a speculative
     candidate (e.g. root = a & ~b inside an a-xor-b candidate), and
     rewiring would then close a combinational cycle. *)
  if in_tfi aig ~node:root ~root:(node_of lit) then
    invalid_arg "Aig.replace: candidate cone contains the root (cycle)";
  let queue = Queue.create () in
  let forward : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec resolve l =
    match Hashtbl.find_opt forward (node_of l) with
    | Some r -> resolve (r lxor (l land 1))
    | None -> l
  in
  (* Every queue-entry target stays pinned until the whole call
     completes, so forwarding-chain ends can never be dismantled while
     references may still be moved onto them. *)
  let pinned = Vec.create () in
  let pin l =
    let v = node_of l in
    aig.nrefs.(v) <- aig.nrefs.(v) + 1;
    Vec.push pinned v
  in
  pin lit;
  Queue.add (root, lit) queue;
  while not (Queue.is_empty queue) do
    let o, nl0 = Queue.take queue in
    let nl = resolve nl0 in
    if aig.dead.(o) || o = node_of nl then ()
    else begin
      Hashtbl.replace forward o nl;
      (* Move primary-output references. *)
      let out_idxs = Csr.to_array aig.out_uses o in
      Array.iter
        (fun idx ->
          let cur = Vec.get aig.outs idx in
          if node_of cur = o then begin
            let nlit = nl lxor (cur land 1) in
            Vec.set aig.outs idx nlit;
            let v = node_of nlit in
            aig.nrefs.(v) <- aig.nrefs.(v) + 1;
            Csr.push aig.out_uses v idx;
            Csr.remove aig.out_uses o idx;
            aig.nrefs.(o) <- aig.nrefs.(o) - 1
          end)
        out_idxs;
      (* Move fanin references, rehashing each fanout. *)
      let fos = Csr.to_array aig.fanouts o in
      Array.iter
        (fun fo ->
          if (not aig.dead.(fo))
             && (node_of aig.fanin0.(fo) = o || node_of aig.fanin1.(fo) = o)
          then begin
            let f0 = aig.fanin0.(fo) and f1 = aig.fanin1.(fo) in
            let a0, b0 = if f0 < f1 then (f0, f1) else (f1, f0) in
            let key0 = strash_key a0 b0 in
            if Itab.find aig.strash key0 ~default:(-1) = fo then
              Itab.remove aig.strash key0;
            let subst f =
              if node_of f = o then begin
                let nf = nl lxor (f land 1) in
                let v = node_of nf in
                aig.nrefs.(v) <- aig.nrefs.(v) + 1;
                Csr.push aig.fanouts v fo;
                Csr.remove aig.fanouts o fo;
                aig.nrefs.(o) <- aig.nrefs.(o) - 1;
                nf
              end
              else f
            in
            let nf0 = subst f0 in
            let nf1 = subst f1 in
            let a, b = if nf0 < nf1 then (nf0, nf1) else (nf1, nf0) in
            aig.fanin0.(fo) <- a;
            aig.fanin1.(fo) <- b;
            let equiv =
              if a = b then Some a
              else if a = lnot b then Some const0
              else if a = const0 then Some const0
              else if a = const1 then Some b
              else begin
                let m = Itab.find aig.strash (strash_key a b) ~default:(-1) in
                if m = -1 then begin
                  Itab.replace aig.strash (strash_key a b) fo;
                  None
                end
                else if m <> fo then Some (lit_of m false)
                else None
              end
            in
            match equiv with
            | Some e ->
              pin e;
              Queue.add (fo, e) queue
            | None -> ()
          end)
        fos;
      if aig.nrefs.(o) = 0 then kill_cone aig o
    end
  done;
  Vec.iter
    (fun v ->
      aig.nrefs.(v) <- aig.nrefs.(v) - 1;
      if aig.nrefs.(v) = 0 then kill_cone aig v)
    pinned

let topo aig =
  let id = new_trav aig in
  let order = Vec.create ~capacity:aig.n () in
  (* Iterative post-order DFS: the stack stores (node, expanded?). *)
  let stack = Vec.create () in
  let push_root v = if aig.trav.(v) <> id then Vec.push stack (v lsl 1) in
  Vec.iter (fun l -> push_root (node_of l)) aig.outs;
  Vec.iter (fun v -> push_root v) aig.inputs;
  let process () =
    while not (Vec.is_empty stack) do
      let e = Vec.pop stack in
      let v = e lsr 1 and expanded = e land 1 = 1 in
      if expanded then Vec.push order v
      else if aig.trav.(v) <> id then begin
        aig.trav.(v) <- id;
        Vec.push stack ((v lsl 1) lor 1);
        if is_and aig v then begin
          Vec.push stack (node_of aig.fanin0.(v) lsl 1);
          Vec.push stack (node_of aig.fanin1.(v) lsl 1)
        end
      end
    done
  in
  process ();
  (* Exclude the constant node from the order. *)
  Array.of_seq (Seq.filter (fun v -> v <> 0) (Array.to_seq (Vec.to_array order)))

let levels aig =
  let lv = Array.make aig.n (-1) in
  lv.(0) <- 0;
  let order = topo aig in
  Array.iter
    (fun v ->
      if is_input aig v then lv.(v) <- 0
      else if is_and aig v then
        lv.(v) <-
          1 + max lv.(node_of aig.fanin0.(v)) lv.(node_of aig.fanin1.(v)))
    order;
  lv

let depth aig =
  let lv = levels aig in
  Vec.fold (fun acc l -> max acc lv.(node_of l)) 0 aig.outs

let size aig =
  let id = new_trav aig in
  let count = ref 0 in
  let stack = Vec.create () in
  let visit v =
    if aig.trav.(v) <> id then begin
      aig.trav.(v) <- id;
      Vec.push stack v
    end
  in
  Vec.iter (fun l -> visit (node_of l)) aig.outs;
  while not (Vec.is_empty stack) do
    let v = Vec.pop stack in
    if is_and aig v then begin
      incr count;
      visit (node_of aig.fanin0.(v));
      visit (node_of aig.fanin1.(v))
    end
  done;
  !count

(* --- canonical structural digest ---

   [fold_hash] folds a 64-bit hash bottom-up over the live cone only:
   dead nodes are never visited (the walk starts from the outputs and
   inputs, exactly like [topo]), node ids never enter the hash (each
   node hashes from its fanins' hashes, not their indices), and the
   two fanin hashes are combined min-first so the digest is invariant
   under the fanin reordering [compact] performs when node ids change.
   The result is therefore stable across [copy] and [compact] and
   independent of dead-node garbage, while any functional edit to a
   live gate (connective, phase, or support) reaches the outputs and
   changes the digest with overwhelming probability. *)

let fh_const_tag = Hash64.finalize 0x5bd1e995L
let fh_input_tag = Hash64.finalize 0xc2b2ae35L
let fh_and_tag = Hash64.finalize 0x85ebca77L
let fh_compl_mask = Hash64.finalize 0x27d4eb2fL

let fold_hash aig =
  let h = Array.make aig.n 0L in
  h.(0) <- fh_const_tag;
  let hlit l =
    let base = h.(node_of l) in
    if is_compl l then Int64.logxor base fh_compl_mask else base
  in
  Array.iter
    (fun v ->
      if is_input aig v then
        h.(v) <- Hash64.mix2 fh_input_tag (Int64.of_int (input_index aig v))
      else begin
        let a = hlit aig.fanin0.(v) and b = hlit aig.fanin1.(v) in
        let lo, hi =
          if Int64.unsigned_compare a b <= 0 then (a, b) else (b, a)
        in
        h.(v) <- Hash64.mix2 (Hash64.mix2 fh_and_tag lo) hi
      end)
    (topo aig);
  let acc =
    Hash64.mix2
      (Int64.of_int (num_inputs aig))
      (Int64.of_int (num_outputs aig))
  in
  Vec.fold (fun acc l -> Hash64.mix2 acc (hlit l)) acc aig.outs

(* Per-origin (created, live) tallies. "Live" uses the same
   reachable-from-outputs walk as [size], so the live column sums to
   exactly [size aig]. *)
let origin_stats aig =
  let live = Array.make aig.n_origins 0 in
  let id = new_trav aig in
  let stack = Vec.create () in
  let visit v =
    if aig.trav.(v) <> id then begin
      aig.trav.(v) <- id;
      Vec.push stack v
    end
  in
  Vec.iter (fun l -> visit (node_of l)) aig.outs;
  while not (Vec.is_empty stack) do
    let v = Vec.pop stack in
    if is_and aig v then begin
      live.(aig.origins.(v)) <- live.(aig.origins.(v)) + 1;
      visit (node_of aig.fanin0.(v));
      visit (node_of aig.fanin1.(v))
    end
  done;
  let rows = ref [] in
  for i = aig.n_origins - 1 downto 0 do
    if live.(i) > 0 || aig.origin_created.(i) > 0 then
      rows := (aig.origin_defs.(i), aig.origin_created.(i), live.(i)) :: !rows
  done;
  !rows

let created_counts aig =
  let rows = ref [] in
  for i = aig.n_origins - 1 downto 0 do
    if aig.origin_created.(i) > 0 then
      rows := (aig.origin_defs.(i), aig.origin_created.(i)) :: !rows
  done;
  !rows

let support aig node =
  let id = new_trav aig in
  let stack = Vec.create () in
  let pis = ref [] in
  Vec.push stack node;
  while not (Vec.is_empty stack) do
    let v = Vec.pop stack in
    if aig.trav.(v) <> id then begin
      aig.trav.(v) <- id;
      if is_input aig v then pis := v :: !pis
      else if is_and aig v then begin
        Vec.push stack (node_of aig.fanin0.(v));
        Vec.push stack (node_of aig.fanin1.(v))
      end
    end
  done;
  List.sort Stdlib.compare !pis

(* Simulated deletion: decrement fanin references of [root]'s cone,
   counting AND nodes whose count reaches zero. *)
let rec deref_mffc aig root count =
  List.iter
    (fun f ->
      let v = node_of f in
      aig.nrefs.(v) <- aig.nrefs.(v) - 1;
      if aig.nrefs.(v) = 0 && is_and aig v then begin
        incr count;
        deref_mffc aig v count
      end)
    [ aig.fanin0.(root); aig.fanin1.(root) ]

let rec reref_mffc aig root =
  List.iter
    (fun f ->
      let v = node_of f in
      if aig.nrefs.(v) = 0 && is_and aig v then reref_mffc aig v;
      aig.nrefs.(v) <- aig.nrefs.(v) + 1)
    [ aig.fanin0.(root); aig.fanin1.(root) ]

let mffc_size aig node =
  if not (is_and aig node) then 0
  else begin
    let count = ref 1 in
    deref_mffc aig node count;
    reref_mffc aig node;
    !count
  end

type checkpoint = int

let mark_created aig = aig.n

let fresh_since aig cp =
  let count = ref 0 in
  for v = cp to aig.n - 1 do
    if is_and aig v then incr count
  done;
  !count

let gain_of_replacement aig ~root ~candidate =
  if not (is_and aig root) then invalid_arg "Aig.gain_of_replacement";
  let cv = node_of candidate in
  (* Count the AND nodes that exist only to support the candidate. *)
  let added = ref 0 in
  let rec virtual_kill v =
    if is_and aig v && aig.nrefs.(v) = 0 then begin
      incr added;
      List.iter
        (fun f ->
          let w = node_of f in
          aig.nrefs.(w) <- aig.nrefs.(w) - 1;
          virtual_kill w)
        [ aig.fanin0.(v); aig.fanin1.(v) ]
    end
  in
  let rec virtual_unkill v =
    if is_and aig v && aig.nrefs.(v) = 0 then
      List.iter
        (fun f ->
          let w = node_of f in
          virtual_unkill w;
          aig.nrefs.(w) <- aig.nrefs.(w) + 1)
        [ aig.fanin0.(v); aig.fanin1.(v) ]
  in
  virtual_kill cv;
  virtual_unkill cv;
  (* Pin the candidate, then measure the MFFC of [root] under
     sharing with the candidate cone. *)
  aig.nrefs.(cv) <- aig.nrefs.(cv) + 1;
  let saved = ref 1 in
  deref_mffc aig root saved;
  reref_mffc aig root;
  aig.nrefs.(cv) <- aig.nrefs.(cv) - 1;
  !saved - !added

(* O(live) snapshot: per-node arrays are blitted only up to the
   allocated prefix [n] (with a little headroom so the copy can grow a
   few times before reallocating), the CSR arenas are copied compacted
   in the same bound, traversal stamps are reset instead of copied
   (they are scratch state: a fresh zero array with [trav_id = 0] is
   indistinguishable from never-traversed), and the append-only
   origin intern tables are shared copy-on-write. No boxed per-node
   structures are allocated. *)
let copy aig =
  let n = aig.n in
  let cap = n + (n lsr 2) + 8 in
  let prefix a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  aig.origins_shared <- true;
  {
    fanin0 = prefix aig.fanin0 (-1);
    fanin1 = prefix aig.fanin1 (-1);
    nrefs = prefix aig.nrefs 0;
    dead = prefix aig.dead false;
    trav = Array.make cap 0;
    fanouts = Csr.copy aig.fanouts ~nodes:n ~node_cap:cap;
    out_uses = Csr.copy aig.out_uses ~nodes:n ~node_cap:cap;
    n;
    trav_id = 0;
    tfo = [||];
    tfo_id = 0;
    num_live_ands = aig.num_live_ands;
    inputs = Vec.copy aig.inputs;
    outs = Vec.copy aig.outs;
    strash = Itab.copy aig.strash;
    origins = prefix aig.origins 0;
    origin_defs = aig.origin_defs;
    origin_created = Array.copy aig.origin_created;
    origin_ids = aig.origin_ids;
    n_origins = aig.n_origins;
    cur_origin = aig.cur_origin;
    origin_counting = aig.origin_counting;
    origins_shared = true;
  }

(* Squeeze relocation leaks out of the adjacency arenas. Offsets and
   capacities change; list contents and order do not, so this is
   invisible to every reader. Flow scripts call it at pass
   boundaries. *)
let compact_arenas aig =
  Csr.compact aig.fanouts;
  Csr.compact aig.out_uses

let arena_capacity_words aig =
  Csr.capacity_words aig.fanouts + Csr.capacity_words aig.out_uses

let arena_live_words aig =
  Csr.live_words aig.fanouts + Csr.live_words aig.out_uses

let compact aig =
  let fresh = create ~expected:(aig.n + 1) () in
  begin_rebuild fresh ~from:aig;
  let map = Array.make aig.n (-1) in
  Vec.iter
    (fun v ->
      let l = add_input fresh in
      fresh.origins.(node_of l) <- aig.origins.(v);
      map.(v) <- l)
    aig.inputs;
  map.(0) <- const0;
  let order = topo aig in
  Array.iter
    (fun v ->
      if is_and aig v then begin
        let f0 = aig.fanin0.(v) and f1 = aig.fanin1.(v) in
        let m f = map.(node_of f) lxor (f land 1) in
        (* Adopt the old node's tag when the AND is freshly built;
           strash hits keep their first tag (first-stamp-wins). *)
        let n0 = fresh.n in
        let nl = band fresh (m f0) (m f1) in
        if node_of nl >= n0 then fresh.origins.(node_of nl) <- aig.origins.(v);
        map.(v) <- nl
      end)
    order;
  end_rebuild fresh;
  Vec.iter
    (fun l ->
      let nl = map.(node_of l) in
      if nl < 0 then invalid_arg "Aig.compact: unreachable output node";
      ignore (add_output fresh (nl lxor (l land 1))))
    aig.outs;
  let remap l =
    let v = node_of l in
    if v >= Array.length map || map.(v) < 0 then invalid_arg "Aig.compact: unmapped literal"
    else map.(v) lxor (l land 1)
  in
  (fresh, remap)

let check aig =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Recount references. *)
  let refs = Array.make aig.n 0 in
  for v = 0 to aig.n - 1 do
    if is_and aig v then begin
      let f0 = aig.fanin0.(v) and f1 = aig.fanin1.(v) in
      if f0 > f1 then fail "node %d: fanins not ordered" v;
      List.iter
        (fun f ->
          let w = node_of f in
          if w >= aig.n then fail "node %d: fanin out of range" v;
          if aig.dead.(w) then fail "node %d: dead fanin %d" v w;
          refs.(w) <- refs.(w) + 1)
        [ f0; f1 ]
    end
  done;
  Vec.iter
    (fun l ->
      let w = node_of l in
      if aig.dead.(w) then fail "output references dead node %d" w;
      refs.(w) <- refs.(w) + 1)
    aig.outs;
  for v = 0 to aig.n - 1 do
    if not aig.dead.(v) && refs.(v) <> aig.nrefs.(v) then
      fail "node %d: nref %d but counted %d" v aig.nrefs.(v) refs.(v)
  done;
  (* Provenance: every node's tag must be an interned origin id. *)
  for v = 0 to aig.n - 1 do
    if not aig.dead.(v) then begin
      let o = aig.origins.(v) in
      if o < 0 || o >= aig.n_origins then
        fail "node %d: origin id %d out of range (%d interned)" v o aig.n_origins
    end
  done;
  if aig.cur_origin < 0 || aig.cur_origin >= aig.n_origins then
    fail "current origin id %d out of range" aig.cur_origin;
  (* Strash consistency: every live AND is hashed under its key. *)
  for v = 0 to aig.n - 1 do
    if is_and aig v then begin
      match Itab.find aig.strash (strash_key aig.fanin0.(v) aig.fanin1.(v)) ~default:(-1) with
      | m when m = v -> ()
      | -1 -> fail "node %d: missing from strash" v
      | m -> fail "node %d: strash maps its key to %d" v m
    end
  done;
  Itab.iter
    (fun key v ->
      let a = key lsr 31 and b = key land 0x7FFFFFFF in
      if aig.dead.(v) then fail "strash contains dead node %d" v;
      if aig.fanin0.(v) <> a || aig.fanin1.(v) <> b then
        fail "strash key mismatch for node %d" v)
    aig.strash;
  (* Fanout lists: one entry per fanin reference. *)
  let focount = Array.make aig.n 0 in
  for v = 0 to aig.n - 1 do
    if is_and aig v then begin
      focount.(node_of aig.fanin0.(v)) <- focount.(node_of aig.fanin0.(v)) + 1;
      focount.(node_of aig.fanin1.(v)) <- focount.(node_of aig.fanin1.(v)) + 1
    end
  done;
  for v = 0 to aig.n - 1 do
    if not aig.dead.(v) then begin
      let live_entries =
        Csr.fold (fun acc fo -> if is_and aig fo then acc + 1 else acc) 0 aig.fanouts v
      in
      if live_entries <> focount.(v) then
        fail "node %d: fanout entries %d but fanin references %d" v live_entries focount.(v)
    end
  done;
  (* Acyclicity: a topological order must assign every live AND a
     position after both fanins. *)
  let order = topo aig in
  let pos = Array.make aig.n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Array.iter
    (fun v ->
      if is_and aig v then begin
        let p0 = pos.(node_of aig.fanin0.(v)) in
        let p1 = pos.(node_of aig.fanin1.(v)) in
        let ok p = node_of aig.fanin0.(v) = 0 || p >= 0 in
        if (not (ok p0)) || p0 >= pos.(v) then fail "node %d: fanin0 not before node" v;
        if (not (ok p1)) || (p1 >= pos.(v) && node_of aig.fanin1.(v) <> 0) then
          fail "node %d: fanin1 not before node" v
      end)
    order

let pp_stats fmt aig =
  Format.fprintf fmt "i/o = %d/%d  and = %d  depth = %d" (num_inputs aig)
    (num_outputs aig) (size aig) (depth aig)
