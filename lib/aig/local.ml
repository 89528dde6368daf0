module Tt = Sbm_truthtable.Tt

(* --- windows --- *)

(* Expansion cost of replacing leaf [v] by its fanins: the number of
   new leaves added. Negative or zero costs shrink or keep the cut
   width and are always good. *)
let expansion_cost aig leaf_set v =
  if not (Aig.is_and aig v) then max_int
  else begin
    let f0 = Aig.node_of (Aig.fanin0 aig v) in
    let f1 = Aig.node_of (Aig.fanin1 aig v) in
    let cost_of w = if Hashtbl.mem leaf_set w || w = 0 then 0 else 1 in
    let c = cost_of f0 + (if f1 <> f0 then cost_of f1 else 0) in
    c - 1
  end

let reconv_cut aig root ~max_leaves =
  let leaf_set : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Each node is expanded at most once: on reconvergent structures a
     removed leaf can reappear through another expansion, and without
     this rule the loop oscillates. *)
  let expanded : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let add v = if v <> 0 && not (Hashtbl.mem leaf_set v) then Hashtbl.add leaf_set v () in
  add (Aig.node_of (Aig.fanin0 aig root));
  add (Aig.node_of (Aig.fanin1 aig root));
  let continue_ = ref true in
  while !continue_ do
    (* Pick the expandable leaf of minimum cost. *)
    let best = ref None in
    Hashtbl.iter
      (fun v () ->
        if v <> root && Aig.is_and aig v && not (Hashtbl.mem expanded v) then begin
          let c = expansion_cost aig leaf_set v in
          if c < max_int then begin
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | Some _ | None -> best := Some (c, v)
          end
        end)
      leaf_set;
    match !best with
    | Some (c, v) when Hashtbl.length leaf_set + c <= max_leaves ->
      Hashtbl.add expanded v ();
      Hashtbl.remove leaf_set v;
      add (Aig.node_of (Aig.fanin0 aig v));
      add (Aig.node_of (Aig.fanin1 aig v))
    | Some _ | None -> continue_ := false
  done;
  let leaves = Hashtbl.fold (fun v () acc -> v :: acc) leaf_set [] in
  Array.of_list (List.sort Stdlib.compare leaves)

type window = {
  aig : Aig.t;
  leaves : int array;
  tts : (int, Tt.t) Hashtbl.t;
}

(* The leaves form a cut, so the walk below the root never leaves the
   memo's leaves and cone. *)
let rec eval w v =
  match Hashtbl.find_opt w.tts v with
  | Some tt -> tt
  | None ->
    if not (Aig.is_and w.aig v) then invalid_arg "Local.eval: cone escapes the cut";
    let f0 = Aig.fanin0 w.aig v and f1 = Aig.fanin1 w.aig v in
    let t0 = eval w (Aig.node_of f0) in
    let t1 = eval w (Aig.node_of f1) in
    let tt = Tt.and_phase ~na:(Aig.is_compl f0) t0 ~nb:(Aig.is_compl f1) t1 in
    Hashtbl.add w.tts v tt;
    tt

let window aig root ~max_leaves =
  let leaves = reconv_cut aig root ~max_leaves in
  let n = Array.length leaves in
  if n < 2 || n > Tt.max_vars then None
  else begin
    let tts = Hashtbl.create 64 in
    Array.iteri (fun i v -> Hashtbl.replace tts v (Tt.var n i)) leaves;
    Hashtbl.replace tts 0 (Tt.const0 n);
    let w = { aig; leaves; tts } in
    Some (w, eval w root)
  end

(* --- the commit rule and the walk --- *)

let commit aig ~zero_gain root candidate =
  let c = Aig.node_of candidate in
  (* [in_tfi] is inclusive: this rejects the root itself, and a root
     that strashing rebuilt inside the candidate (root = a & ~b inside
     an a-xor-b candidate), which committing would close into a
     cycle. *)
  if Aig.in_tfi aig ~node:root ~root:c then begin
    Aig.delete_dangling aig c;
    None
  end
  else begin
    (* The gain recorded while scanning may have shifted as sibling
       candidates were released; recompute before committing. *)
    let gain = Aig.gain_of_replacement aig ~root ~candidate in
    if gain > 0 || (zero_gain && gain = 0) then begin
      Aig.replace aig root candidate;
      Some gain
    end
    else begin
      Aig.delete_dangling aig c;
      None
    end
  end

(* Evaluate one candidate replacement for [v]: keep it (pinned) if it
   beats [best], otherwise release its dangling cone. The best
   candidate stays pinned so deleting a losing sibling that shares
   structure with it cannot collect it. *)
let consider aig v best candidate =
  if Aig.node_of candidate = v then best
  else begin
    let gain = Aig.gain_of_replacement aig ~root:v ~candidate in
    match best with
    | Some (bg, bc) when bg >= gain ->
      if Aig.node_of candidate <> Aig.node_of bc then
        Aig.delete_dangling aig (Aig.node_of candidate);
      best
    | Some (_, bc) ->
      Aig.pin aig candidate;
      Aig.unpin aig bc;
      Some (gain, candidate)
    | None ->
      Aig.pin aig candidate;
      Some (gain, candidate)
  end

let run ~zero_gain candidates aig =
  let order = Aig.topo aig in
  let total = ref 0 in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then
        match Seq.fold_left (consider aig v) None (candidates aig v) with
        | None -> ()
        | Some (_, candidate) -> (
          Aig.unpin ~collect:false aig candidate;
          match commit aig ~zero_gain v candidate with
          | Some gain -> total := !total + gain
          | None -> ()))
    order;
  !total
