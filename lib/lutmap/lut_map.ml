module Aig = Sbm_aig.Aig
module Cut = Sbm_aig.Cut

type lut = { root : int; leaves : int array }

type mapping = { luts : lut list; lut_count : int; depth : int }

(* One mapping-selection pass. [refs] estimates how many times each
   node is referenced by the current mapping (fanout count on the
   first pass); returns the per-node best cut: least area flow, depth
   as tie-break. *)
let select aig cuts refs =
  let n = Aig.num_nodes aig in
  let best_cut = Array.make n None in
  let area_flow = Array.make n 0.0 in
  let depth = Array.make n 0 in
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then begin
        area_flow.(v) <- 0.0;
        depth.(v) <- 0
      end
      else if Aig.is_and aig v then begin
        let evaluate (c : Cut.cut) =
          if Array.length c.Cut.leaves < 1 then None
          else if Array.exists (fun l -> l = v) c.Cut.leaves then None
          else begin
            let d = Array.fold_left (fun acc l -> max acc depth.(l)) 0 c.Cut.leaves in
            let af =
              Array.fold_left (fun acc l -> acc +. area_flow.(l)) 1.0 c.Cut.leaves
            in
            Some (c, af, 1 + d)
          end
        in
        let candidates = List.filter_map evaluate cuts.(v) in
        match candidates with
        | [] -> failwith "Lut_map.select: node without usable cut"
        | _ ->
          let better (af, d) (baf, bd) =
            af < baf -. 1e-9 || (Float.abs (af -. baf) <= 1e-9 && d < bd)
          in
          let c, af, d =
            List.fold_left
              (fun (bc, baf, bd) (c, af, d) ->
                if better (af, d) (baf, bd) then (c, af, d) else (bc, baf, bd))
              (List.hd candidates |> fun (c, af, d) -> (c, af, d))
              (List.tl candidates)
          in
          best_cut.(v) <- Some c;
          let r = float_of_int (max 1 refs.(v)) in
          area_flow.(v) <- af /. r;
          depth.(v) <- d
      end)
    order;
  best_cut

(* Derive the cover: walk from the outputs, instantiate the chosen
   cut of every required node, requiring its leaves in turn. *)
let derive aig best_cut =
  let required = Hashtbl.create 256 in
  let luts = ref [] in
  let stack = ref [] in
  Array.iter
    (fun l ->
      let v = Aig.node_of l in
      if Aig.is_and aig v then stack := v :: !stack)
    (Aig.outputs aig);
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if not (Hashtbl.mem required v) then begin
        Hashtbl.add required v ();
        match best_cut.(v) with
        | None -> failwith "Lut_map.derive: unmapped required node"
        | Some (c : Cut.cut) ->
          luts := { root = v; leaves = Array.copy c.Cut.leaves } :: !luts;
          Array.iter
            (fun l -> if Aig.is_and aig l then stack := l :: !stack)
            c.Cut.leaves
      end
  done;
  !luts

let mapping_depth aig luts =
  let d = Hashtbl.create 256 in
  let lut_of = Hashtbl.create 256 in
  List.iter (fun lut -> Hashtbl.replace lut_of lut.root lut) luts;
  let rec depth_of v =
    if not (Aig.is_and aig v) then 0
    else
      match Hashtbl.find_opt d v with
      | Some x -> x
      | None -> (
        match Hashtbl.find_opt lut_of v with
        | None -> 0
        | Some lut ->
          let x =
            1 + Array.fold_left (fun acc l -> max acc (depth_of l)) 0 lut.leaves
          in
          Hashtbl.replace d v x;
          x)
  in
  Array.fold_left
    (fun acc l -> max acc (depth_of (Aig.node_of l)))
    0 (Aig.outputs aig)

(* Reference counts induced by a derived mapping: how many LUTs (or
   outputs) read each node. *)
let mapping_refs aig luts =
  let refs = Array.make (Aig.num_nodes aig) 0 in
  List.iter
    (fun lut ->
      Array.iter (fun l -> refs.(l) <- refs.(l) + 1) lut.leaves)
    luts;
  Array.iter
    (fun l -> refs.(Aig.node_of l) <- refs.(Aig.node_of l) + 1)
    (Aig.outputs aig);
  refs

(* Priority cuts kept per node, and selection passes (the first plus
   the area-recovery ones). *)
let max_cuts = 8
let area_passes = 3

let map ?(k = 6) aig =
  let cuts = Cut.enumerate aig ~k ~max_cuts in
  (* First pass: structural fanout counts as reference estimates. *)
  let refs0 = Array.init (Aig.num_nodes aig) (fun v -> Aig.nref aig v) in
  let luts = ref (derive aig (select aig cuts refs0)) in
  for _ = 2 to area_passes do
    let candidate = derive aig (select aig cuts (mapping_refs aig !luts)) in
    if List.length candidate <= List.length !luts then luts := candidate
  done;
  { luts = !luts; lut_count = List.length !luts; depth = mapping_depth aig !luts }

let check aig mapping =
  let mapped = Hashtbl.create 256 in
  List.iter (fun lut -> Hashtbl.replace mapped lut.root ()) mapping.luts;
  Array.iter
    (fun l ->
      let v = Aig.node_of l in
      if Aig.is_and aig v && not (Hashtbl.mem mapped v) then
        failwith "Lut_map.check: unmapped output")
    (Aig.outputs aig);
  List.iter
    (fun lut ->
      if Array.length lut.leaves = 0 then failwith "Lut_map.check: empty cut";
      Array.iter
        (fun l ->
          if Aig.is_and aig l && not (Hashtbl.mem mapped l) then
            failwith "Lut_map.check: leaf not mapped";
          if Aig.is_dead aig l then failwith "Lut_map.check: dead leaf")
        lut.leaves)
    mapping.luts
