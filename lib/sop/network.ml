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

(* A canonical kernel with its generic [Hashtbl.hash], taken once when
   the kernel is enumerated, and the two sizes [kernel_value] reads. *)
type kernel = { cubes : Sop.cube list; hash : int; lits : int; ncubes : int }

module Ktbl_key = struct
  type t = kernel

  let equal a b = a.hash = b.hash && List.equal Sop.cube_equal a.cubes b.cubes
  let hash k = k.hash
end

module Ktbl = Hashtbl.Make (Ktbl_key)

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
  mutable kernels : (Sop.cover * (kernel * Sop.cube) list) option;
  (* Memo of [Sop.complement] of the cover, with the cover and the cube
     bound it was computed from, on the same validity rule. *)
  mutable compl : (Sop.cover * int * Sop.cover option) option;
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
    compl = None;
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

let complement nd ~max_cubes =
  match nd.compl with
  | Some (cv, mc, r) when cv == nd.cover && mc = max_cubes -> r
  | Some _ | None ->
    let r = Sop.complement ~max_cubes nd.cover in
    nd.compl <- Some (nd.cover, max_cubes, r);
    r

(* Substitute node [n]'s cover into cover [cv]; None on cube-count
   explosion or un-complementable negative occurrences. [compl_n ()]
   is the complement of [n]'s cover, asked for only when [cv] holds
   the negative literal. *)
let substitute ~max_cubes cv n cover_n compl_n =
  let pos = [| Sop.lit_of n false |] and neg = [| Sop.lit_of n true |] in
  (* The quotients of [cv]'s cubes holding [n] and holding its
     complement, and the other cubes, in any order: the result below
     is a normalized set. *)
  let q_pos, q_neg, rest =
    List.fold_left
      (fun (qp, qn, r) c ->
        match Sop.cube_div c pos with
        | Some q -> (q :: qp, qn, r)
        | None -> (
          match Sop.cube_div c neg with Some q -> (qp, q :: qn, r) | None -> (qp, qn, c :: r)))
      ([], [], []) cv
  in
  let has_pos = q_pos <> [] and has_neg = q_neg <> [] in
  if (not has_pos) && not has_neg then Some cv
  else begin
    (* Products stay unnormalized: absorption over the union keeps the
       same minimal cubes as absorbing each product first, and the
       bounded pass stops at the first cube past [max_cubes]. *)
    let product a b =
      List.concat_map (fun ca -> List.filter_map (fun cb -> Sop.cube_mul ca cb) b) a
    in
    let neg_part =
      if not has_neg then Some []
      else
        match compl_n () with
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
            match substitute ~max_cubes cv n nd.cover (fun () -> complement nd ~max_cubes) with
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

(* The reachable internal nodes [only] admits, in id order: [refs > 0]
   is reachability, so this is the set the DFS of [internal_nodes]
   would give, without the DFS. *)
let reachable t only =
  let acc = ref [] in
  for id = t.n - 1 downto 0 do
    let nd = t.nodes.(id) in
    if nd.refs > 0 && (match nd.kind with Internal -> true | Pi _ -> false) && only id then
      acc := id :: !acc
  done;
  !acc

(* Extraction takes the best candidate in the order a generic
   [Hashtbl] filled in DFS order would iterate: the best score first,
   then the lowest bucket index ([Hashtbl.hash] of the key modulo the
   final bucket count), then the latest first insertion (a bucket lists
   its keys from the latest inserted). The table is filled in any order
   and that order is reproduced: [final_buckets initial d] is the
   bucket count of a table created at [initial] buckets once it holds
   [d] keys (it doubles when it holds more than two keys per bucket). *)
let final_buckets initial d =
  let rec go size = if d > 2 * size then go (2 * size) else size in
  go initial

(* The candidates of the best score, then of the lowest bucket, offered
   in any order. *)
type 'a leaders = { mutable score : int; mutable bucket : int; mutable tied : 'a list }

let leaders () = { score = min_int; bucket = max_int; tied = [] }

let offer l ~score ~bucket x =
  if score > l.score || (score = l.score && bucket < l.bucket) then begin
    l.score <- score;
    l.bucket <- bucket;
    l.tied <- [ x ]
  end
  else if score = l.score && bucket = l.bucket then l.tied <- x :: l.tied

(* [latest_first ties ~same ~walk] is the candidate of [ties] (of one
   score and one bucket) whose key is first inserted last: [walk f]
   calls [f] on the keys in DFS insertion order, and [f] ends the walk
   once one candidate is left unseen. *)
let latest_first ties ~same ~walk =
  match ties with
  | [ x ] -> x
  | _ ->
    let unseen = ref ties in
    (try
       walk (fun key ->
           unseen := List.filter (fun x -> not (same x key)) !unseen;
           if List.compare_length_with !unseen 1 <= 0 then raise_notrace Exit)
     with Exit -> ());
    List.hd !unseen

(* Value of extracting kernel [k] given its occurrence list
   [(node, cokernel)]. *)
let kernel_value k occs =
  let per_occ =
    List.fold_left
      (fun acc (_, cok) ->
        let lits_c = Array.length cok in
        acc + ((k.ncubes - 1) * lits_c) + k.lits - 1)
      0 occs
  in
  per_occ - k.lits

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
          (fun (k, cok) ->
            match k with
            | [] | [ _ ] -> None
            | _ ->
              let cubes = Sop.canonical k in
              Some
                ( { cubes; hash = Hashtbl.hash cubes; lits = Sop.num_lits cubes;
                    ncubes = List.length cubes },
                  cok ))
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
    let table : (node_id * Sop.cube) list ref Ktbl.t = Ktbl.create 64 in
    List.iter
      (fun n ->
        List.iter
          (fun (key, cok) ->
            match Ktbl.find_opt table key with
            | Some occs -> occs := (n, cok) :: !occs
            | None -> Ktbl.add table key (ref [ (n, cok) ]))
          (kernels t n))
      (reachable t only);
    (* The best-value kernel, in the order of a generic table created at
       64 buckets. *)
    let mask = final_buckets 64 (Ktbl.length table) - 1 in
    let best = leaders () in
    Ktbl.iter
      (fun k occs ->
        let v = kernel_value k !occs in
        if v > 0 then offer best ~score:v ~bucket:(k.hash land mask) (k, !occs))
      table;
    match best.tied with
    | [] -> ()
    | ties ->
      let k, occs =
        latest_first ties
          ~same:(fun (k, _) key -> Ktbl_key.equal k key)
          ~walk:(fun f ->
            List.iter
              (fun n -> if only n then List.iter (fun (key, _) -> f key) (kernels t n))
              (internal_nodes t))
      in
      let k = k.cubes in
      let y = alloc t Internal k in
      let y_lit = Sop.lit_of y false in
      let touched = List.sort_uniq Int.compare (List.map fst occs) in
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

(* Literal pairs [(l1, l2)], [l1 < l2], packed into one int (literals
   stay below 2^31), under a multiplicative hash. *)
module Pairtbl = Hashtbl.Make (struct
  type t = int

  let equal (a : t) b = a = b

  let hash (p : t) =
    let h = p * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

let pair l1 l2 = (l1 lsl 31) lor l2
let pair_lits p = (p lsr 31, p land 0x7fffffff)

(* Calls [f] on the packed literal pairs of [cover]'s cubes, in cover
   order. *)
let iter_pairs f cover =
  List.iter
    (fun c ->
      let len = Array.length c in
      for i = 0 to len - 1 do
        for j = i + 1 to len - 1 do
          f (pair c.(i) c.(j))
        done
      done)
    cover

let extract_cubes t ?(only = fun _ -> true) ~max_passes () =
  let created = ref 0 in
  let continue_ = ref true in
  let pass = ref 0 in
  while !continue_ && !pass < max_passes do
    incr pass;
    continue_ := false;
    let counts : int ref Pairtbl.t = Pairtbl.create 256 in
    let nodes = reachable t only in
    List.iter
      (fun n ->
        iter_pairs
          (fun key ->
            match Pairtbl.find_opt counts key with
            | Some cnt -> incr cnt
            | None -> Pairtbl.add counts key (ref 1))
          (cover t n))
      nodes;
    (* The most shared pair, in the order of a generic table keyed by
       the pair [(l1, l2)] and created at 256 buckets. *)
    let mask = final_buckets 256 (Pairtbl.length counts) - 1 in
    let best = leaders () in
    Pairtbl.iter
      (fun key cnt ->
        (* Only a pair that can lead pays for its generic hash. *)
        if !cnt > 2 && !cnt >= best.score then
          offer best ~score:!cnt ~bucket:(Hashtbl.hash (pair_lits key) land mask) key)
      counts;
    match best.tied with
    | [] -> ()
    | ties ->
      let l1, l2 =
        pair_lits
          (latest_first ties ~same:Int.equal ~walk:(fun f ->
               List.iter (fun n -> if only n then iter_pairs f (cover t n)) (internal_nodes t)))
      in
      let y = alloc t Internal [ Sop.cube_of_list [ l1; l2 ] ] in
      let y_lit = Sop.lit_of y false in
      let has l c = Array.exists (fun x -> x = l) c in
      let has_pair c = has l1 c && has l2 c in
      (* Every cover here is in [Sop.normalize] form (DESIGN.md §17),
         so a cover with no cube holding the pair would normalize to
         itself: only the covers holding it are rewritten. *)
      List.iter
        (fun n ->
          let cv = cover t n in
          if List.exists has_pair cv then begin
            let replaced =
              List.map
                (fun c ->
                  if has_pair c then
                    Array.to_list c
                    |> List.filter (fun l -> l <> l1 && l <> l2)
                    |> List.cons y_lit
                    |> Sop.cube_of_list
                  else c)
                cv
            in
            let cv' = Sop.normalize replaced in
            if cv' <> cv then replace_cover t n cv'
          end)
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

type trial = {
  tr_mark : int;
  tr_nodes : (node_id * Sop.cover * bool) list;
  tr_created : (Sop.cover * bool) array; (* ids [tr_mark], [tr_mark + 1], ... *)
}

let record_trial t nodes ~mark =
  let state id = let nd = node t id in (nd.cover, nd.alive) in
  {
    tr_mark = mark;
    tr_nodes = List.map (fun id -> let cv, alive = state id in (id, cv, alive)) nodes;
    tr_created = Array.init (t.n - mark) (fun i -> state (mark + i));
  }

(* The created nodes are all allocated before any cover is written,
   since a created cover may name a later created node. They stay
   unreachable until a listed cover names them, so writing their covers
   only touches [users] lists. *)
let replay_trial t r =
  if t.n <> r.tr_mark then invalid_arg "Network.replay_trial: not at the trial's mark";
  Array.iter (fun _ -> ignore (alloc t Internal [])) r.tr_created;
  Array.iteri
    (fun i (cv, alive) ->
      let id = r.tr_mark + i in
      t.nodes.(id).alive <- alive;
      replace_cover t id cv)
    r.tr_created;
  List.iter
    (fun (id, cv, alive) ->
      let nd = node t id in
      nd.alive <- alive;
      replace_cover t id cv)
    r.tr_nodes

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
