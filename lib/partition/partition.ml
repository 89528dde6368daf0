module Aig = Sbm_aig.Aig

type t = { nodes : int array; leaves : int array; roots : int array }

type limits = { max_levels : int; max_nodes : int; max_leaves : int }

let default_limits = { max_levels = 16; max_nodes = 400; max_leaves = 32 }

(* A member is a root when it has references from outside the member
   set: an external fanout node or a primary output. *)
let is_root aig members v =
  let member_refs =
    List.fold_left
      (fun acc fo ->
        if Hashtbl.mem members fo then
          acc
          + (if Aig.node_of (Aig.fanin0 aig fo) = v then 1 else 0)
          + (if Aig.node_of (Aig.fanin1 aig fo) = v then 1 else 0)
        else acc)
      0 (Aig.fanout_nodes aig v)
  in
  Aig.nref aig v > member_refs

let derive aig node_list =
  let members = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace members v ()) node_list;
  let leaves = Hashtbl.create 32 in
  List.iter
    (fun v ->
      List.iter
        (fun f ->
          let w = Aig.node_of f in
          if w <> 0 && not (Hashtbl.mem members w) then Hashtbl.replace leaves w ())
        [ Aig.fanin0 aig v; Aig.fanin1 aig v ])
    node_list;
  let roots = List.filter (is_root aig members) node_list in
  let leaves = Hashtbl.fold (fun v () acc -> v :: acc) leaves [] in
  {
    nodes = Array.of_list node_list;
    leaves = Array.of_list (List.sort Stdlib.compare leaves);
    roots = Array.of_list roots;
  }

let live_members aig members =
  Array.of_seq
    (Seq.filter
       (fun v -> Hashtbl.mem members v && Aig.is_and aig v)
       (Array.to_seq (Aig.topo aig)))

let live_roots aig members order =
  Array.of_seq (Seq.filter (is_root aig members) (Array.to_seq order))

let leaf_cone_members aig ~leaves members =
  let member_set = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace member_set v ()) members;
  let tainted = Hashtbl.create 64 in
  let visited = Hashtbl.create 256 in
  let stack = ref [] in
  Array.iter (fun leaf -> if Aig.is_and aig leaf then stack := leaf :: !stack) leaves;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.add visited v ();
        if Hashtbl.mem member_set v then Hashtbl.replace tainted v ();
        if Aig.is_and aig v then
          stack := Aig.node_of (Aig.fanin0 aig v) :: Aig.node_of (Aig.fanin1 aig v) :: !stack
      end
  done;
  tainted

let of_nodes aig nodes =
  (* Keep the given nodes in topological order. *)
  let set = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace set v ()) nodes;
  derive aig (Array.to_list (live_members aig set))

let whole aig =
  let order = Aig.topo aig in
  let nodes = Array.to_list order |> List.filter (fun v -> Aig.is_and aig v) in
  derive aig nodes

(* Structural-support signature: the (min, max) primary-input index
   reachable in the TFI, computed bottom-up. *)
let support_signatures aig =
  let n = Aig.num_nodes aig in
  let smin = Array.make n max_int in
  let smax = Array.make n (-1) in
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then begin
        let i = Aig.input_index aig v in
        smin.(v) <- i;
        smax.(v) <- i
      end
      else if Aig.is_and aig v then begin
        let m f =
          let w = Aig.node_of f in
          if w = 0 then (max_int, -1) else (smin.(w), smax.(w))
        in
        let a0, b0 = m (Aig.fanin0 aig v) in
        let a1, b1 = m (Aig.fanin1 aig v) in
        smin.(v) <- min a0 a1;
        smax.(v) <- max b0 b1
      end)
    order;
  (smin, smax)

let compute aig limits =
  let order = Aig.topo aig in
  let levels = Aig.levels aig in
  let smin, smax = support_signatures aig in
  let ands = Array.to_list order |> List.filter (fun v -> Aig.is_and aig v) in
  (* Sort by support similarity, stably w.r.t. topological position so
     partition members stay roughly causally grouped. *)
  let pos = Hashtbl.create 256 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) ands;
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = compare (smin.(a), smax.(a)) (smin.(b), smax.(b)) in
        if c <> 0 then c else compare (Hashtbl.find pos a) (Hashtbl.find pos b))
      ands
  in
  let partitions = ref [] in
  let current = ref [] in
  let cur_count = ref 0 in
  let cur_lmin = ref max_int in
  let cur_lmax = ref (-1) in
  let cur_members = Hashtbl.create 64 in
  let cur_leaves = Hashtbl.create 64 in
  let flush () =
    if !current <> [] then begin
      partitions := of_nodes aig (List.rev !current) :: !partitions;
      current := [];
      cur_count := 0;
      cur_lmin := max_int;
      cur_lmax := -1;
      Hashtbl.reset cur_members;
      Hashtbl.reset cur_leaves
    end
  in
  List.iter
    (fun v ->
      let lv = levels.(v) in
      let lmin' = min !cur_lmin lv and lmax' = max !cur_lmax lv in
      (* Leaf-count estimate after adding v. *)
      let fanin_leaves =
        List.filter
          (fun f ->
            let w = Aig.node_of f in
            w <> 0 && (not (Hashtbl.mem cur_members w)) && not (Hashtbl.mem cur_leaves w))
          [ Aig.fanin0 aig v; Aig.fanin1 aig v ]
      in
      let leaves' =
        Hashtbl.length cur_leaves
        + List.length fanin_leaves
        - (if Hashtbl.mem cur_leaves v then 1 else 0)
      in
      if
        !cur_count > 0
        && (!cur_count + 1 > limits.max_nodes
           || lmax' - lmin' > limits.max_levels
           || leaves' > limits.max_leaves)
      then flush ();
      current := v :: !current;
      incr cur_count;
      cur_lmin := min !cur_lmin lv;
      cur_lmax := max !cur_lmax lv;
      Hashtbl.replace cur_members v ();
      Hashtbl.remove cur_leaves v;
      List.iter
        (fun f ->
          let w = Aig.node_of f in
          if w <> 0 && not (Hashtbl.mem cur_members w) then Hashtbl.replace cur_leaves w ())
        [ Aig.fanin0 aig v; Aig.fanin1 aig v ])
    sorted;
  flush ();
  List.rev !partitions
