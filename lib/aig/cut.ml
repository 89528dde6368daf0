type cut = { leaves : int array; tt : int64 }

let[@inline] tt_mask m = if m >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl m)) 1L

(* Bit [i] of [proj.(v)] is bit [v] of [i]: the table of variable [v]. *)
let proj =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

(* Swap variables [a < b] of a 6-variable table: each bit whose
   minterm has [a] set and [b] clear trades places with its partner
   [2^b - 2^a] bits higher (a delta swap). *)
let[@inline] swap tt a b =
  let shift = (1 lsl b) - (1 lsl a) in
  let m = Int64.logand proj.(a) (Int64.lognot proj.(b)) in
  let t = Int64.logand (Int64.logxor (Int64.shift_right_logical tt shift) tt) m in
  Int64.logxor tt (Int64.logxor t (Int64.shift_left t shift))

let stretch tt (leaves : int array) (super : int array) =
  let m = Array.length leaves in
  let m' = Array.length super in
  if m = m' then tt
  else begin
    (* Repeat the table over 6 variables, so variables [m..5] are
       don't-cares. Then move each leaf, highest first, from variable
       [i] to its position in [super]: that position is a don't-care
       at the time, so one swap moves it. *)
    let t = ref (Int64.logand tt (tt_mask m)) in
    for s = m to 5 do
      t := Int64.logor !t (Int64.shift_left !t (1 lsl s))
    done;
    let j = ref (m' - 1) in
    for i = m - 1 downto 0 do
      while super.(!j) <> leaves.(i) do decr j done;
      if !j > i then t := swap !t i !j;
      decr j
    done;
    Int64.logand !t (tt_mask m')
  end

(* A cut's leaf signature: bit [leaf land 63] set for every leaf. Its
   popcount is a lower bound on the leaf count, and a subset's
   signature is a subset of the superset's. *)
let signature (leaves : int array) = Array.fold_left (fun s l -> s lor (1 lsl (l land 63))) 0 leaves

(* Whether more than [k] bits of [x] are set. *)
let rec wider x k = x <> 0 && (k = 0 || wider (x land (x - 1)) (k - 1))

(* Sorted union of [a] and [b] into [buf] from [a.(i)], [b.(j)] and
   [buf.(n)] on; its length, or -1 if it would exceed
   [Array.length buf]. *)
let rec union (buf : int array) (a : int array) (b : int array) i j n =
  let la = Array.length a and lb = Array.length b in
  if i = la && j = lb then n
  else if n = Array.length buf then -1
  else if i = la then (buf.(n) <- b.(j); union buf a b i (j + 1) (n + 1))
  else if j = lb then (buf.(n) <- a.(i); union buf a b (i + 1) j (n + 1))
  else
    let x = a.(i) and y = b.(j) in
    if x = y then (buf.(n) <- x; union buf a b (i + 1) (j + 1) (n + 1))
    else if x < y then (buf.(n) <- x; union buf a b (i + 1) j (n + 1))
    else (buf.(n) <- y; union buf a b i (j + 1) (n + 1))

(* Lexicographic on the sorted leaf ids from index [i] on. *)
let rec compare_from (l1 : int array) l2 i =
  if i = Array.length l1 then 0
  else if l1.(i) <> l2.(i) then Stdlib.compare l1.(i) l2.(i)
  else compare_from l1 l2 (i + 1)

(* Fewer leaves first, then lexicographic on the sorted leaf ids. *)
let compare_leaves l1 l2 =
  let n1 = Array.length l1 and n2 = Array.length l2 in
  if n1 <> n2 then Stdlib.compare n1 n2 else compare_from l1 l2 0

(* Whether sorted [l1] from [i] on is a subset of sorted [l2] from [j]
   on. *)
let rec subset (l1 : int array) l2 i j =
  if i = Array.length l1 then true
  else if j = Array.length l2 then false
  else if l1.(i) = l2.(j) then subset l1 l2 (i + 1) (j + 1)
  else if l1.(i) > l2.(j) then subset l1 l2 i (j + 1)
  else false

(* Two pairs of fanin cuts can give the same leaves with different
   functions, when a leaf is a free variable in one and expanded into
   its own cone in the other. The enumeration keeps the one that
   [List.sort_uniq] keeps when it sorts the unions in reverse
   generation order: of two equal elements at positions [p] and [q] of
   an [n]-long list, it keeps the one in the first half of its split,
   and in a block of three it prefers the middle, then the first. *)
let rec sort_uniq_keeps n p q =
  if n = 2 then p < q
  else if n = 3 then
    let rank i = if i = 1 then 0 else if i = 0 then 1 else 2 in
    rank p < rank q
  else
    let n1 = n asr 1 in
    if p < n1 && q < n1 then sort_uniq_keeps n1 p q
    else if p >= n1 && q >= n1 then sort_uniq_keeps (n - n1) (p - n1) (q - n1)
    else p < n1

(* The cut set of an AND node with fanins [f0]/[f1], from the fanins'
   cut sets: every pairwise leaf union of at most [k] leaves with its
   function, deduplicated and sorted, dominated cuts dropped, the
   first [max_cuts] kept. A union is built only if its signature
   allows [k] leaves, and a function only for a kept cut. *)
let merge_fanins ~k ~max_cuts f0 cuts0 f1 cuts1 =
  let n0 = Array.length cuts0 and n1 = Array.length cuts1 in
  let unions = Array.make (n0 * n1) [||] in
  let sigs = Array.make (n0 * n1) 0 in
  let pair = Array.make (n0 * n1) 0 in
  let order = Array.make (n0 * n1) 0 in
  let buf = Array.make k 0 in
  let sigs1 = Array.map (fun c -> signature c.leaves) cuts1 in
  (* Union [e] is the [e]-th fitting pair in generation order, fanin-0
     cut outer: [pair.(e) = i0 * n1 + i1]. *)
  let count = ref 0 in
  for i0 = 0 to n0 - 1 do
    let l0 = cuts0.(i0).leaves in
    let s0 = signature l0 in
    for i1 = 0 to n1 - 1 do
      let l1 = cuts1.(i1).leaves in
      let s = s0 lor sigs1.(i1) in
      if not (wider s k) then begin
        let n = union buf l0 l1 0 0 0 in
        if n >= 0 then begin
          let e = !count in
          unions.(e) <- Array.sub buf 0 n;
          sigs.(e) <- s;
          pair.(e) <- (i0 * n1) + i1;
          (* Insertion into the sorted prefix: few unions fit. *)
          let j = ref (e - 1) in
          while !j >= 0 && compare_leaves unions.(order.(!j)) unions.(e) > 0 do
            order.(!j + 1) <- order.(!j);
            decr j
          done;
          order.(!j + 1) <- e;
          count := e + 1
        end
      end
    done
  done;
  let count = !count in
  let tt_of e =
    let c0 = cuts0.(pair.(e) / n1) and c1 = cuts1.(pair.(e) mod n1) in
    let leaves = unions.(e) in
    let t0 = stretch c0.tt c0.leaves leaves in
    let t1 = stretch c1.tt c1.leaves leaves in
    let t0 = if Aig.is_compl f0 then Int64.lognot t0 else t0 in
    let t1 = if Aig.is_compl f1 then Int64.lognot t1 else t1 in
    Int64.logand (Int64.logand t0 t1) (tt_mask (Array.length leaves))
  in
  (* The function of the class of equal unions [order.(a..b-1)]. *)
  let class_tt a b =
    let tt = tt_of order.(a) in
    if b = a + 1 then tt
    else begin
      let tts = Array.init (b - a) (fun i -> if i = 0 then tt else tt_of order.(a + i)) in
      if Array.for_all (Int64.equal tt) tts then tt
      else begin
        let pos i = count - 1 - order.(a + i) in
        let best = ref 0 in
        for i = 1 to b - a - 1 do
          if sort_uniq_keeps count (pos i) (pos !best) then best := i
        done;
        tts.(!best)
      end
    end
  in
  (* Walk the classes in order. The unions are sorted by size, so a
     cut can only be dominated by an earlier one, and a dropped cut's
     dominator is itself dominated by a kept one. *)
  let kept = ref [] and nkept = ref 0 in
  let a = ref 0 in
  while !a < count && !nkept <> max_cuts do
    let e = order.(!a) in
    let leaves = unions.(e) and s = sigs.(e) in
    let b = ref (!a + 1) in
    while !b < count && compare_leaves unions.(order.(!b)) leaves = 0 do incr b done;
    if not (List.exists (fun (ks, c) -> ks land lnot s = 0 && subset c.leaves leaves 0 0) !kept)
    then begin
      kept := (s, { leaves; tt = class_tt !a !b }) :: !kept;
      incr nkept
    end;
    a := !b
  done;
  Array.of_list (List.rev_map snd !kept)

(* The trivial cut of [v] has one leaf and the identity function; the
   constant node's cut has no leaves and the false function. *)
let trivial v = { leaves = [| v |]; tt = 2L }
let const_cut = { leaves = [||]; tt = 0L }

let enumerate aig ~k ~max_cuts =
  if k < 2 || k > 6 then invalid_arg "Cut.enumerate: k must be in [2,6]";
  let sets = Array.make (Aig.num_nodes aig) [||] in
  let cuts_of v = if v = 0 then [| const_cut |] else sets.(v) in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then sets.(v) <- [| trivial v |]
      else if Aig.is_and aig v then begin
        let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
        sets.(v) <-
          Array.append [| trivial v |]
            (merge_fanins ~k ~max_cuts f0 (cuts_of (Aig.node_of f0)) f1
               (cuts_of (Aig.node_of f1)))
      end)
    (Aig.topo aig);
  Array.map Array.to_list sets

let local aig root ~k ~max_cuts ~depth =
  if k < 2 || k > 6 then invalid_arg "Cut.local: k must be in [2,6]";
  let memo = Hashtbl.create 64 in
  let rec cuts_of v d =
    match Hashtbl.find_opt memo v with
    | Some cs -> cs
    | None ->
      let cs =
        if v = 0 then [| const_cut |]
        else if d = 0 || not (Aig.is_and aig v) then [| trivial v |]
        else begin
          let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
          let cuts0 = cuts_of (Aig.node_of f0) (d - 1) in
          let cuts1 = cuts_of (Aig.node_of f1) (d - 1) in
          let cs = merge_fanins ~k ~max_cuts f0 cuts0 f1 cuts1 in
          if Array.exists (fun c -> Array.length c.leaves = 1) cs then cs
          else Array.append [| trivial v |] cs
        end
      in
      Hashtbl.add memo v cs;
      cs
  in
  Array.to_list (cuts_of root depth)

let cut_tt_full c =
  Sbm_truthtable.Tt.of_word (Array.length c.leaves) c.tt
