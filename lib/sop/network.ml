module Aig = Sbm_aig.Aig
module Hash64 = Sbm_util.Hash64

type node_id = int

type kind = Pi of int | Internal

(* A memoized [eliminate_trial] (below): its result with the inputs it
   read, the node's cover, the cube bound and each fanout with its
   cover, in [fanouts] order. *)
type elim_memo = {
  e_cover : Sop.cover;
  e_max_cubes : int;
  e_fanouts : (node_id * Sop.cover) list;
  e_result : ((node_id * Sop.cover) list * int) option;
}

type node = {
  kind : kind;
  mutable cover : Sop.cover;
  mutable alive : bool;
  (* Provenance carried from the source AIG ([of_aig]); [None] for
     nodes created inside the SOP domain (kernel/cube extraction). *)
  mutable origin : Aig.Origin.t option;
  mutable is_output : bool; (* some primary output refers to the node *)
  (* Fanout structure, kept current by [replace_cover] (the only
     cover write): [fanins] is [Sop.support cover]; [users] lists
     every node whose cover mentions this one, reachable or not;
     [refs] counts the outputs referring to this node plus the
     reachable nodes whose cover mentions it, so the node is
     reachable from the outputs iff [refs > 0]. *)
  mutable fanins : node_id list;
  mutable users : node_id list;
  mutable refs : int;
  (* Memo of [kernels] (below) with the cover it was computed from;
     valid while that cover is physically the current one (covers are
     replaced wholesale, never mutated in place). *)
  mutable kernels : (Sop.cover * (Sop.cube list * Sop.cube) list) option;
  (* Valid while every input it records is physically unchanged. *)
  mutable elim : elim_memo option;
}

type t = {
  mutable nodes : node array;
  mutable n : int;
  inputs : int array; (* node ids, by PI index *)
  mutable outs : (node_id * bool) array; (* node id, complemented *)
  (* The [internal_nodes] DFS order, dropped whenever a reachable
     cover changes. *)
  mutable topo_cache : node_id list option;
}

let fresh kind =
  {
    kind;
    cover = [];
    alive = true;
    origin = None;
    is_output = false;
    fanins = [];
    users = [];
    refs = 0;
    kernels = None;
    elim = None;
  }

let num_inputs t = Array.length t.inputs
let num_outputs t = Array.length t.outs

let node t id =
  if id < 0 || id >= t.n then invalid_arg "Network: bad node id";
  t.nodes.(id)

let cover t id = (node t id).cover

(* [diff a b] is [a] minus [b], both sorted without duplicates. *)
let rec diff a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | (x : int) :: a', y :: b' ->
    if x < y then x :: diff a' b else if x > y then diff a b' else diff a' b'

(* A node entering (leaving) the reachable set references (releases)
   its fanins. *)
let rec incr_ref t v =
  let nd = t.nodes.(v) in
  nd.refs <- nd.refs + 1;
  if nd.refs = 1 then List.iter (incr_ref t) nd.fanins

let rec decr_ref t v =
  let nd = t.nodes.(v) in
  nd.refs <- nd.refs - 1;
  if nd.refs = 0 then List.iter (decr_ref t) nd.fanins

(* The one cover write: moves [n] between the [users] lists of its old
   and new fanins and, when [n] is reachable, refs the added fanins
   before releasing the removed ones (so a fanin reachable both ways
   never transits through zero). *)
let replace_cover t n cv =
  let nd = node t n in
  if cv != nd.cover then begin
    let fanins = Sop.support cv in
    let added = diff fanins nd.fanins and removed = diff nd.fanins fanins in
    List.iter (fun v -> let u = node t v in u.users <- n :: u.users) added;
    List.iter
      (fun v -> let u = t.nodes.(v) in u.users <- List.filter (fun m -> m <> n) u.users)
      removed;
    nd.cover <- cv;
    nd.fanins <- fanins;
    if nd.refs > 0 then begin
      List.iter (incr_ref t) added;
      List.iter (decr_ref t) removed;
      t.topo_cache <- None
    end
  end

let alloc t kind cover =
  if t.n >= Array.length t.nodes then begin
    let bigger = Array.make (2 * Array.length t.nodes) (fresh Internal) in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end;
  let id = t.n in
  t.n <- id + 1;
  t.nodes.(id) <- fresh kind;
  replace_cover t id cover;
  id

let of_aig aig =
  let cap = Aig.num_nodes aig + 2 in
  let t =
    {
      nodes = Array.make cap (fresh Internal);
      n = 0;
      inputs = Array.make (Aig.num_inputs aig) (-1);
      outs = [||];
      topo_cache = None;
    }
  in
  let map = Array.make (Aig.num_nodes aig) (-1) in
  (* Constant-zero node. *)
  let const_id = alloc t Internal [] in
  map.(0) <- const_id;
  for i = 0 to Aig.num_inputs aig - 1 do
    let id = alloc t (Pi i) [] in
    t.inputs.(i) <- id;
    map.(Aig.node_of (Aig.input_lit aig i)) <- id
  done;
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
        let lit f = Sop.lit_of map.(Aig.node_of f) (Aig.is_compl f) in
        let c = Sop.cube_of_list [ lit f0; lit f1 ] in
        let id = alloc t Internal [ c ] in
        t.nodes.(id).origin <- Some (Aig.node_origin aig v);
        map.(v) <- id
      end)
    order;
  t.outs <-
    Array.map
      (fun l -> (map.(Aig.node_of l), Aig.is_compl l))
      (Aig.outputs aig);
  Array.iter
    (fun (id, _) ->
      t.nodes.(id).is_output <- true;
      incr_ref t id)
    t.outs;
  t

let internal_nodes t =
  match t.topo_cache with
  | Some order -> order
  | None ->
    (* Topological order by DFS from the outputs. *)
    let visited = Array.make t.n false in
    let order = ref [] in
    let rec visit id =
      if not visited.(id) then begin
        visited.(id) <- true;
        match (node t id).kind with
        | Pi _ -> ()
        | Internal ->
          List.iter
            (fun c -> Array.iter (fun l -> visit (Sop.var_of l)) c)
            (node t id).cover;
          order := id :: !order
      end
    in
    Array.iter (fun (id, _) -> visit id) t.outs;
    let order = List.rev !order in
    t.topo_cache <- Some order;
    order

let num_internal t = List.length (internal_nodes t)

let num_lits t =
  List.fold_left (fun acc id -> acc + Sop.num_lits (cover t id)) 0 (internal_nodes t)

let is_output t id = (node t id).is_output

let fanouts t id =
  List.filter (fun m -> m <> id && t.nodes.(m).refs > 0) (node t id).users

(* Substitute node [n]'s cover into cover [cv]; None on cube-count
   explosion or un-complementable negative occurrences. *)
let substitute ~max_cubes cv n cover_n =
  let pos = Sop.lit_of n false and neg = Sop.lit_of n true in
  let has_pos = List.exists (fun c -> Array.exists (fun l -> l = pos) c) cv in
  let has_neg = List.exists (fun c -> Array.exists (fun l -> l = neg) c) cv in
  if (not has_pos) && not has_neg then Some cv
  else begin
    let q_pos = Sop.divide_by_cube cv [| pos |] in
    let q_neg = Sop.divide_by_cube cv [| neg |] in
    let rest =
      List.filter
        (fun c -> not (Array.exists (fun l -> l = pos || l = neg) c))
        cv
    in
    (* Products stay unnormalized: absorption over the union keeps the
       same minimal cubes as absorbing each product first, and the
       bounded pass stops at the first cube past [max_cubes]. *)
    let product a b =
      List.concat_map (fun ca -> List.filter_map (fun cb -> Sop.cube_mul ca cb) b) a
    in
    let neg_part =
      if not has_neg then Some []
      else
        match Sop.complement ~max_cubes cover_n with
        | None -> None
        | Some compl_n -> Some (product q_neg compl_n)
    in
    match neg_part with
    | None -> None
    | Some neg_cubes ->
      let pos_cubes = if has_pos then product q_pos cover_n else [] in
      Sop.normalize_bounded ~max_cubes (rest @ pos_cubes @ neg_cubes)
  end

(* The fanout covers collapsing [n] would write and the literal
   variation, or None when [n] cannot be collapsed. The variation is a
   sum and the writes go to distinct nodes, so fanout order does not
   matter. The result depends only on [n]'s cover, [max_cubes] and
   the fanouts' covers, so it is memoized on them: a re-evaluation in
   the next elimination sweep, or in the next threshold trial after a
   rollback restored the same covers, is a lookup. *)
let eliminate_trial t n ~max_cubes =
  let nd = node t n in
  match nd.kind with
  | Pi _ -> None
  | Internal ->
    if nd.is_output || not nd.alive then None
    else begin
      let fos = fanouts t n in
      let rec unchanged fos memo =
        match (fos, memo) with
        | [], [] -> true
        | m :: fos, (m', cv) :: memo -> m = m' && cover t m == cv && unchanged fos memo
        | _ -> false
      in
      match nd.elim with
      | Some e
        when e.e_cover == nd.cover && e.e_max_cubes = max_cubes
             && unchanged fos e.e_fanouts ->
        e.e_result
      | Some _ | None ->
        let rec go acc delta = function
          | [] -> Some (acc, delta - Sop.num_lits nd.cover)
          | m :: rest -> (
            let cv = cover t m in
            match substitute ~max_cubes cv n nd.cover with
            | None -> None
            | Some cv' -> go ((m, cv') :: acc) (delta + Sop.num_lits cv' - Sop.num_lits cv) rest)
        in
        let result = go [] 0 fos in
        nd.elim <-
          Some
            {
              e_cover = nd.cover;
              e_max_cubes = max_cubes;
              e_fanouts = List.map (fun m -> (m, cover t m)) fos;
              e_result = result;
            };
        result
    end

let eliminate t ~threshold ~max_cubes ?(only = fun _ -> true) () =
  let least_kept = ref max_int in
  let changed = ref true in
  while !changed do
    changed := false;
    let candidates = internal_nodes t in
    List.iter
      (fun n ->
        if only n && not (is_output t n) then begin
          match eliminate_trial t n ~max_cubes with
          | Some (updates, v) when v < threshold ->
            List.iter (fun (m, cv) -> replace_cover t m cv) updates;
            (node t n).alive <- false;
            changed := true
          | Some (_, v) -> least_kept := min !least_kept v
          | None -> ()
        end)
      candidates
  done;
  !least_kept

(* Value of extracting kernel [k] given its occurrence list
   [(node, cokernel)]. *)
let kernel_value k occs =
  let lits_k = Sop.num_lits k in
  let cubes_k = List.length k in
  let per_occ =
    List.fold_left
      (fun acc (_, cok) ->
        let lits_c = Array.length cok in
        acc + ((cubes_k - 1) * lits_c) + lits_k - 1)
      0 occs
  in
  per_occ - lits_k

(* The kernels extraction can use: [Sop.kernels_bounded ~limit:30]
   restricted to multi-cube kernels, in canonical form. *)
let kernels t n =
  let nd = node t n in
  match nd.kernels with
  | Some (cv, ks) when cv == nd.cover -> ks
  | Some _ | None ->
    let ks =
      if List.length nd.cover < 2 then []
      else
        List.filter_map
          (fun (k, cok) -> if List.length k >= 2 then Some (Sop.canonical k, cok) else None)
          (Sop.kernels_bounded ~limit:30 nd.cover)
    in
    nd.kernels <- Some (nd.cover, ks);
    ks

let extract_kernels t ?(only = fun _ -> true) ~max_passes () =
  let created = ref 0 in
  let continue_ = ref true in
  let pass = ref 0 in
  while !continue_ && !pass < max_passes do
    incr pass;
    continue_ := false;
    let table : (Sop.cube list, (node_id * Sop.cube) list) Hashtbl.t = Hashtbl.create 64 in
    let nodes = List.filter only (internal_nodes t) in
    List.iter
      (fun n ->
        List.iter
          (fun (key, cok) ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt table key) in
            Hashtbl.replace table key ((n, cok) :: prev))
          (kernels t n))
      nodes;
    (* Pick the best-value kernel. *)
    let best = ref None in
    Hashtbl.iter
      (fun k occs ->
        let v = kernel_value k occs in
        match !best with
        | Some (bv, _, _) when bv >= v -> ()
        | Some _ | None -> if v > 0 then best := Some (v, k, occs))
      table;
    match !best with
    | None -> ()
    | Some (_, k, occs) ->
      let y = alloc t Internal k in
      let y_lit = Sop.lit_of y false in
      let touched = List.sort_uniq Stdlib.compare (List.map fst occs) in
      let applied = ref false in
      List.iter
        (fun n ->
          let cv = cover t n in
          let q, r = Sop.divide cv k in
          if q <> [] then begin
            let newq = List.filter_map (fun c -> Sop.cube_mul c [| y_lit |]) q in
            let candidate = Sop.normalize (newq @ r) in
            if Sop.num_lits candidate + 1 < Sop.num_lits cv then begin
              replace_cover t n candidate;
              applied := true
            end
          end)
        touched;
      if !applied then begin
        incr created;
        continue_ := true
      end
      else begin
        replace_cover t y [];
        (node t y).alive <- false
      end
  done;
  !created

let extract_cubes t ?(only = fun _ -> true) ~max_passes () =
  let created = ref 0 in
  let continue_ = ref true in
  let pass = ref 0 in
  while !continue_ && !pass < max_passes do
    incr pass;
    continue_ := false;
    let counts : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
    let nodes = List.filter only (internal_nodes t) in
    List.iter
      (fun n ->
        List.iter
          (fun c ->
            let len = Array.length c in
            for i = 0 to len - 1 do
              for j = i + 1 to len - 1 do
                let key = (c.(i), c.(j)) in
                Hashtbl.replace counts key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
              done
            done)
          (cover t n))
      nodes;
    let best = ref None in
    Hashtbl.iter
      (fun key cnt ->
        match !best with
        | Some (bc, _) when bc >= cnt -> ()
        | Some _ | None -> if cnt > 2 then best := Some (cnt, key))
      counts;
    match !best with
    | None -> ()
    | Some (_, (l1, l2)) ->
      let y = alloc t Internal [ Sop.cube_of_list [ l1; l2 ] ] in
      let y_lit = Sop.lit_of y false in
      List.iter
        (fun n ->
          let cv = cover t n in
          let replaced =
            List.map
              (fun c ->
                if Array.exists (fun l -> l = l1) c && Array.exists (fun l -> l = l2) c
                then
                  Array.to_list c
                  |> List.filter (fun l -> l <> l1 && l <> l2)
                  |> List.cons y_lit
                  |> Sop.cube_of_list
                else c)
              cv
          in
          let cv' = Sop.normalize replaced in
          if cv' <> cv then replace_cover t n cv')
        nodes;
      incr created;
      continue_ := true
  done;
  !created

(* [provenance = (src, fallback)] carries origin tags through the SOP
   round-trip: the factored logic of each internal node is stamped
   with the node's recorded origin (from [of_aig]); nodes created in
   the SOP domain (extracted kernels/cubes) are stamped — and their
   construction counted — under [fallback]. *)
let to_aig ?provenance t =
  let aig = Aig.create ~expected:(t.n * 4) () in
  (match provenance with
  | None -> ()
  | Some (src, _) -> Aig.begin_rebuild aig ~from:src);
  let map = Array.make t.n Aig.const0 in
  Array.iteri (fun _ id -> map.(id) <- Aig.add_input aig) t.inputs;
  let lit_of_sop_lit l =
    let base = map.(Sop.var_of l) in
    if Sop.lit_is_compl l then Aig.lnot base else base
  in
  (* Quick literal factoring. *)
  let rec factor cv =
    if Sop.is_const0 cv then Aig.const0
    else if Sop.is_const1 cv then Aig.const1
    else
      match cv with
      | [ c ] -> Aig.band_list aig (List.map lit_of_sop_lit (Array.to_list c))
      | _ ->
        (* Find the most shared literal. *)
        let counts = Hashtbl.create 16 in
        List.iter
          (fun c ->
            Array.iter
              (fun l ->
                Hashtbl.replace counts l
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
              c)
          cv;
        let best = ref None in
        Hashtbl.iter
          (fun l cnt ->
            if cnt >= 2 then
              match !best with
              | Some (bc, _) when bc >= cnt -> ()
              | Some _ | None -> best := Some (cnt, l))
          counts;
        (match !best with
        | None ->
          (* No sharing: plain two-level. *)
          Aig.bor_list aig
            (List.map
               (fun c -> Aig.band_list aig (List.map lit_of_sop_lit (Array.to_list c)))
               cv)
        | Some (_, l) ->
          let q = Sop.divide_by_cube cv [| l |] in
          let r = List.filter (fun c -> not (Array.exists (fun x -> x = l) c)) cv in
          let q_lit = factor q in
          let r_lit = factor r in
          Aig.bor aig (Aig.band aig (lit_of_sop_lit l) q_lit) r_lit)
  in
  let prepared id =
    let cv = cover t id in
    (* Exact two-level cleanup before factoring, where affordable. *)
    if List.length cv <= 12 && List.length (Sop.support cv) <= 16 then
      Sop.minimize cv
    else cv
  in
  List.iter
    (fun id ->
      match provenance with
      | None -> map.(id) <- factor (prepared id)
      | Some (_, fallback) -> (
        match (node t id).origin with
        | Some o ->
          Aig.set_origin aig o;
          map.(id) <- factor (prepared id)
        | None ->
          (* Genuinely new logic: count the ANDs it factors into. *)
          Aig.set_origin aig fallback;
          let cp = Aig.mark_created aig in
          map.(id) <- factor (prepared id);
          Aig.note_created aig fallback (Aig.fresh_since aig cp)))
    (internal_nodes t);
  Array.iter
    (fun (id, compl) ->
      let l = map.(id) in
      ignore (Aig.add_output aig (if compl then Aig.lnot l else l)))
    t.outs;
  (match provenance with
  | None -> ()
  | Some (src, _) ->
    Aig.end_rebuild aig;
    Aig.set_origin aig (Aig.current_origin src));
  aig

let mark t = t.n

let set_cover = replace_cover

let revive t n = (node t n).alive <- true

(* Ids from [m] on are handed out again, so no cover may still name
   one: a reachable node or an output would hold [refs > 0], and a
   node below the mark would be among its [users]. *)
let truncate t m =
  for id = m to t.n - 1 do
    let nd = t.nodes.(id) in
    if nd.refs > 0 || List.exists (fun u -> u < m) nd.users then
      invalid_arg (Printf.sprintf "Network.truncate: node %d is still referenced" id)
  done;
  for id = m to t.n - 1 do
    replace_cover t id []
  done;
  t.n <- m

let check t =
  (* Acyclicity + live references via DFS with an on-stack mark. *)
  let state = Array.make t.n 0 in
  let rec visit id =
    if state.(id) = 1 then failwith "Network.check: cycle detected"
    else if state.(id) = 0 then begin
      state.(id) <- 1;
      (match (node t id).kind with
      | Pi _ -> ()
      | Internal ->
        List.iter
          (fun c ->
            Array.iter
              (fun l ->
                let v = Sop.var_of l in
                if v < 0 || v >= t.n then failwith "Network.check: bad reference";
                if not (node t v).alive then failwith "Network.check: dead reference";
                visit v)
              c)
          (node t id).cover);
      state.(id) <- 2
    end
  in
  Array.iter (fun (id, _) -> visit id) t.outs;
  (* Recompute the fanout structure from the covers; [state = 2] marks
     exactly the nodes reachable from the outputs. *)
  let refs = Array.make t.n 0 and users = Array.make t.n [] in
  Array.iter (fun (id, _) -> refs.(id) <- refs.(id) + 1) t.outs;
  for m = 0 to t.n - 1 do
    let fanins = Sop.support t.nodes.(m).cover in
    if fanins <> t.nodes.(m).fanins then
      failwith (Printf.sprintf "Network.check: node %d: stale fanins" m);
    List.iter
      (fun v ->
        if v < 0 || v >= t.n then failwith "Network.check: bad reference";
        users.(v) <- m :: users.(v);
        if state.(m) = 2 then refs.(v) <- refs.(v) + 1)
      fanins
  done;
  for v = 0 to t.n - 1 do
    let nd = t.nodes.(v) in
    let fail what = failwith (Printf.sprintf "Network.check: node %d: %s" v what) in
    if nd.refs <> refs.(v) then
      fail (Printf.sprintf "refs %d, recomputed %d" nd.refs refs.(v));
    if List.sort Int.compare nd.users <> List.rev users.(v) then fail "stale users";
    if nd.is_output <> Array.exists (fun (o, _) -> o = v) t.outs then
      fail "stale output flag"
  done

let eval t bits =
  if Array.length bits <> num_inputs t then invalid_arg "Network.eval";
  let memo = Array.make t.n None in
  let rec value id =
    match memo.(id) with
    | Some b -> b
    | None ->
      let b =
        match (node t id).kind with
        | Pi i -> bits.(i)
        | Internal -> Sop.eval (node t id).cover (fun v -> value v)
      in
      memo.(id) <- Some b;
      b
  in
  Array.map (fun (id, compl) -> if compl then not (value id) else value id) t.outs

(* --- canonical structural digest ---

   Network-side twin of [Aig.fold_hash]: a bottom-up 64-bit fold over
   the reachable cover structure, used as the structure component of
   the heterogeneous-kernel merge-boundary fingerprints (DESIGN.md
   §9). Node ids never enter the hash — every node hashes from the
   hashes of the nodes its cover references — and literals within a
   cube and cubes within a cover combine commutatively, so the digest
   only depends on the logic function structure, not on allocation
   order or list ordering. *)

let fh_pi_tag = Hash64.finalize 0x9747b28cL
let fh_node_tag = Hash64.finalize 0x3c6ef372L
let fh_compl_mask = Hash64.finalize 0xa54ff53aL

let fold_hash t =
  let h = Array.make t.n 0L in
  Array.iteri (fun i id -> h.(id) <- Hash64.mix2 fh_pi_tag (Int64.of_int i)) t.inputs;
  let hlit l =
    let base = h.(Sop.var_of l) in
    if Sop.lit_is_compl l then Int64.logxor base fh_compl_mask else base
  in
  let hcube c =
    Hash64.finalize (Array.fold_left (fun acc l -> Int64.add acc (Hash64.finalize (hlit l))) 0L c)
  in
  let hcover cov =
    Hash64.finalize (List.fold_left (fun acc c -> Int64.add acc (hcube c)) 0L cov)
  in
  List.iter
    (fun id -> h.(id) <- Hash64.mix2 fh_node_tag (hcover (node t id).cover))
    (internal_nodes t);
  let acc =
    Hash64.mix2 (Int64.of_int (num_inputs t)) (Int64.of_int (num_outputs t))
  in
  Array.fold_left
    (fun acc (id, compl) ->
      let base = h.(id) in
      let v = if compl then Int64.logxor base fh_compl_mask else base in
      Hash64.mix2 acc v)
    acc t.outs
