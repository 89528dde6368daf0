type cut = { leaves : int array; tt : int64 }

let tt_mask m = if m >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl m)) 1L

let stretch tt leaves super =
  let m = Array.length leaves in
  let m' = Array.length super in
  if m = m' then tt
  else begin
    let r = ref 0L in
    for idx = 0 to (1 lsl m') - 1 do
      let a = ref 0 in
      let j = ref 0 in
      for i = 0 to m' - 1 do
        if !j < m && leaves.(!j) = super.(i) then begin
          if (idx lsr i) land 1 = 1 then a := !a lor (1 lsl !j);
          incr j
        end
      done;
      if Int64.logand (Int64.shift_right_logical tt !a) 1L = 1L then
        r := Int64.logor !r (Int64.shift_left 1L idx)
    done;
    !r
  end

(* Sorted-array union; None if the union exceeds k. *)
let merge_leaves k a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make k 0 in
  let rec go i j n =
    if n > k then None
    else if i = la && j = lb then Some (Array.sub out 0 n)
    else if n = k then None
    else if i = la then (out.(n) <- b.(j); go i (j + 1) (n + 1))
    else if j = lb then (out.(n) <- a.(i); go (i + 1) j (n + 1))
    else if a.(i) = b.(j) then (out.(n) <- a.(i); go (i + 1) (j + 1) (n + 1))
    else if a.(i) < b.(j) then (out.(n) <- a.(i); go (i + 1) j (n + 1))
    else (out.(n) <- b.(j); go i (j + 1) (n + 1))
  in
  go 0 0 0

let cut_compare c1 c2 =
  let l1 = c1.leaves and l2 = c2.leaves in
  let n1 = Array.length l1 and n2 = Array.length l2 in
  if n1 <> n2 then Stdlib.compare n1 n2
  else begin
    (* Lexicographic on the sorted leaf ids, hand-rolled: this runs
       under List.sort_uniq for every enumerated cut. *)
    let rec go i =
      if i = n1 then 0
      else
        let a = Array.unsafe_get l1 i and b = Array.unsafe_get l2 i in
        if a <> b then Stdlib.compare (a : int) b else go (i + 1)
    in
    go 0
  end

(* c1 dominates c2 if leaves(c1) is a subset of leaves(c2). *)
let dominates c1 c2 =
  let l1 = c1.leaves and l2 = c2.leaves in
  let n1 = Array.length l1 and n2 = Array.length l2 in
  n1 <= n2
  &&
  let rec go i j =
    if i = n1 then true
    else if j = n2 then false
    else if l1.(i) = l2.(j) then go (i + 1) (j + 1)
    else if l1.(i) > l2.(j) then go i (j + 1)
    else false
  in
  go 0 0

let filter_dominated cuts =
  let rec go kept = function
    | [] -> List.rev kept
    | c :: rest ->
      if List.exists (fun k -> dominates k c) kept then go kept rest
      else go (c :: List.filter (fun k -> not (dominates c k)) kept) rest
  in
  go [] cuts

(* The cut set of an AND node with fanins [f0]/[f1], from the fanins'
   cut sets: every pairwise leaf union of at most [k] leaves with its
   function, deduplicated and sorted, dominated cuts dropped, the
   first [max_cuts] kept. *)
let merge_fanins ~k ~max_cuts f0 cuts0 f1 cuts1 =
  let results = ref [] in
  List.iter
    (fun c0 ->
      List.iter
        (fun c1 ->
          match merge_leaves k c0.leaves c1.leaves with
          | None -> ()
          | Some leaves ->
            let m = Array.length leaves in
            let t0 = stretch c0.tt c0.leaves leaves in
            let t1 = stretch c1.tt c1.leaves leaves in
            let t0 = if Aig.is_compl f0 then Int64.lognot t0 else t0 in
            let t1 = if Aig.is_compl f1 then Int64.lognot t1 else t1 in
            let tt = Int64.logand (Int64.logand t0 t1) (tt_mask m) in
            results := { leaves; tt } :: !results)
        cuts1)
    cuts0;
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | c :: rest -> c :: take (n - 1) rest
  in
  take max_cuts (filter_dominated (List.sort_uniq cut_compare !results))

(* The trivial cut of [v] has one leaf and the identity function; the
   constant node's cut has no leaves and the false function. *)
let trivial v = { leaves = [| v |]; tt = 2L }
let const_cut = { leaves = [||]; tt = 0L }

let enumerate aig ~k ~max_cuts =
  if k < 2 || k > 6 then invalid_arg "Cut.enumerate: k must be in [2,6]";
  let sets = Array.make (Aig.num_nodes aig) [] in
  let cuts_of v = if v = 0 then [ const_cut ] else sets.(v) in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then sets.(v) <- [ trivial v ]
      else if Aig.is_and aig v then begin
        let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
        sets.(v) <-
          trivial v
          :: merge_fanins ~k ~max_cuts f0 (cuts_of (Aig.node_of f0)) f1
               (cuts_of (Aig.node_of f1))
      end)
    (Aig.topo aig);
  sets

let local aig root ~k ~max_cuts ~depth =
  if k < 2 || k > 6 then invalid_arg "Cut.local: k must be in [2,6]";
  let memo = Hashtbl.create 64 in
  let rec cuts_of v d =
    match Hashtbl.find_opt memo v with
    | Some cs -> cs
    | None ->
      let cs =
        if v = 0 then [ const_cut ]
        else if d = 0 || not (Aig.is_and aig v) then [ trivial v ]
        else begin
          let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
          let cuts0 = cuts_of (Aig.node_of f0) (d - 1) in
          let cuts1 = cuts_of (Aig.node_of f1) (d - 1) in
          let cs = merge_fanins ~k ~max_cuts f0 cuts0 f1 cuts1 in
          if List.exists (fun c -> Array.length c.leaves = 1) cs then cs
          else trivial v :: cs
        end
      in
      Hashtbl.add memo v cs;
      cs
  in
  cuts_of root depth

let cut_tt_full c =
  Sbm_truthtable.Tt.of_word (Array.length c.leaves) c.tt
