type cube = int array
type cover = cube list

let lit_of v compl = (v lsl 1) lor (if compl then 1 else 0)
let var_of l = l lsr 1
let lit_compl l = l lxor 1
let lit_is_compl l = l land 1 = 1

let cube_of_list lits =
  let c = Array.of_list (List.sort_uniq Int.compare lits) in
  Array.iteri
    (fun i l ->
      if i > 0 && var_of c.(i - 1) = var_of l then
        invalid_arg "Sop.cube_of_list: opposing or duplicate literals")
    c;
  c

(* Merge two sorted literal arrays; None on opposing literals. *)
let cube_mul a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let rec go i j n =
    if i = la && j = lb then Some (Array.sub out 0 n)
    else if i = la then (out.(n) <- b.(j); go i (j + 1) (n + 1))
    else if j = lb then (out.(n) <- a.(i); go (i + 1) j (n + 1))
    else if a.(i) = b.(j) then (out.(n) <- a.(i); go (i + 1) (j + 1) (n + 1))
    else if a.(i) = lit_compl b.(j) then None
    else if a.(i) < b.(j) then (out.(n) <- a.(i); go (i + 1) j (n + 1))
    else (out.(n) <- b.(j); go i (j + 1) (n + 1))
  in
  go 0 0 0

let cube_contains a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if j = lb then true
    else if i = la then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) < b.(j) then go (i + 1) j
    else false
  in
  go 0 0

(* [a] without literal [l], or None when [l] is absent: one scan up
   to [l], then two blits. *)
let cube_remove a l =
  let n = Array.length a in
  let rec find i =
    if i = n then -1
    else
      let x = Array.unsafe_get a i in
      if x = l then i else if x > l then -1 else find (i + 1)
  in
  let i = find 0 in
  if i < 0 then None
  else begin
    let out = Array.make (n - 1) 0 in
    Array.blit a 0 out 0 i;
    Array.blit a (i + 1) out i (n - 1 - i);
    Some out
  end

(* Literal arrays are sorted, so division and intersection are linear
   merges (the quadratic membership filters dominated kernel
   extraction). *)
let cube_div a b =
  if Array.length b = 1 then cube_remove a b.(0)
  else if not (cube_contains a b) then None
  else begin
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la - lb) 0 in
    let rec go i j n =
      if i = la then Some out
      else if j < lb && a.(i) = b.(j) then go (i + 1) (j + 1) n
      else (out.(n) <- a.(i); go (i + 1) j (n + 1))
    in
    go 0 0 0
  end

(* Sorted intersection of two literal arrays. *)
let cube_inter a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (min la lb) 0 in
  let rec go i j n =
    if i = la || j = lb then Array.sub out 0 n
    else if a.(i) = b.(j) then (out.(n) <- a.(i); go (i + 1) (j + 1) (n + 1))
    else if a.(i) < b.(j) then go (i + 1) j n
    else go i (j + 1) n
  in
  go 0 0 0

let common_cube = function
  | [] -> [||]
  | first :: rest ->
    let rec go acc = function
      | [] -> acc
      | c :: rest -> if Array.length acc = 0 then acc else go (cube_inter acc c) rest
    in
    go first rest

(* Cube comparison/equality are hand-rolled int-array loops: kernel
   extraction and cover normalization sort and dedupe cube lists
   constantly, and the polymorphic primitives dominated those passes. *)
let cube_equal (a : cube) (b : cube) =
  let n = Array.length a in
  let rec go i =
    i = n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
  in
  Array.length b = n && go 0

let cube_compare (a : cube) (b : cube) =
  let na = Array.length a and nb = Array.length b in
  if na <> nb then Stdlib.compare na nb
  else begin
    let rec go i =
      if i = na then 0
      else
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        if x <> y then Stdlib.compare (x : int) y else go (i + 1)
    in
    go 0
  end

(* A 62-bit literal set: [cube_sig d land lnot (cube_sig c) <> 0]
   proves that [d]'s literals are not all in [c] without the merge
   scan. *)
let cube_sig c =
  let s = ref 0 in
  for i = 0 to Array.length c - 1 do
    s := !s lor (1 lsl (Array.unsafe_get c i mod 62))
  done;
  !s

(* Absorption: cube [c] is redundant when some other cube's literals
   are a subset of [c]'s. Such a cube is strictly shorter, and
   [cube_compare] orders by length first, so only the prefix of
   shorter cubes of the sorted cover can absorb [c]. Survivors are
   final as soon as they are found, so the count can stop at the first
   survivor past the bound. *)
let normalize_bounded ~max_cubes cover =
  let sorted = Array.of_list (List.sort_uniq cube_compare cover) in
  let n = Array.length sorted in
  let sigs = Array.map cube_sig sorted in
  let absorbed i =
    let c = sorted.(i) and s = sigs.(i) in
    let len = Array.length c in
    let rec go j =
      let d = sorted.(j) in
      Array.length d < len
      && ((sigs.(j) land lnot s = 0 && cube_contains c d) || go (j + 1))
    in
    go 0
  in
  let rec keep i k acc =
    if i = n then Some (List.rev acc)
    else if absorbed i then keep (i + 1) k acc
    else if k = max_cubes then None
    else keep (i + 1) (k + 1) (sorted.(i) :: acc)
  in
  keep 0 0 []

let normalize cover = Option.get (normalize_bounded ~max_cubes:max_int cover)

let is_const0 cover = cover = []
let is_const1 cover = List.exists (fun c -> Array.length c = 0) cover
let num_lits cover = List.fold_left (fun acc c -> acc + Array.length c) 0 cover

let support cover =
  List.concat_map (fun c -> Array.to_list (Array.map var_of c)) cover
  |> List.sort_uniq Int.compare

let divide_by_cube cover c = List.filter_map (fun cb -> cube_div cb c) cover

let divide cover d =
  match d with
  | [] -> ([], cover)
  | first :: rest ->
    let q0 = divide_by_cube cover first in
    let q =
      List.fold_left
        (fun q dc ->
          let qd = divide_by_cube cover dc in
          List.filter (fun c -> List.exists (cube_equal c) qd) q)
        q0 rest
    in
    let q = List.sort_uniq cube_compare q in
    if q = [] then ([], cover)
    else begin
      (* remainder = cover - q*d *)
      let prod =
        List.concat_map
          (fun qc -> List.filter_map (fun dc -> cube_mul qc dc) d)
          q
      in
      let r = List.filter (fun c -> not (List.exists (cube_equal c) prod)) cover in
      (q, r)
    end

let mul a b = List.concat_map (fun ca -> List.filter_map (fun cb -> cube_mul ca cb) b) a |> normalize

let is_cube_free cover = Array.length (common_cube cover) = 0 && cover <> []

(* The literals of [cover] from [min_lit] on, sorted, in the first [n]
   slots of the returned buffer: one pass and one sort per recursion
   level of [kernels_bounded], where a scan of the cover per literal
   would be quadratic in the cover size. A run of equal literals is
   that literal's number of cubes. Most covers hold a few dozen
   literals, which an insertion sort orders fastest. *)
let sorted_lits cover min_lit =
  let buf = Array.make (List.fold_left (fun acc c -> acc + Array.length c) 0 cover) 0 in
  let n = ref 0 in
  List.iter
    (fun c ->
      for i = 0 to Array.length c - 1 do
        let l = Array.unsafe_get c i in
        if l >= min_lit then begin
          buf.(!n) <- l;
          incr n
        end
      done)
    cover;
  let n = !n in
  if n <= 64 then
    for i = 1 to n - 1 do
      let l = buf.(i) in
      let j = ref i in
      while !j > 0 && buf.(!j - 1) > l do
        buf.(!j) <- buf.(!j - 1);
        decr j
      done;
      buf.(!j) <- l
    done
  else begin
    let a = Array.sub buf 0 n in
    Array.stable_sort Int.compare a;
    Array.blit a 0 buf 0 n
  end;
  (buf, n)

(* The enumeration ends at the [limit]-th kernel: every later one
   would be dropped, and so would the cover itself. *)
let kernels_bounded ~limit cover =
  let exception Full in
  let results = ref [] in
  let count = ref 0 in
  let add kernel cokernel =
    results := (kernel, cokernel) :: !results;
    incr count;
    if !count >= limit then raise_notrace Full
  in
  (* [kernel1] divides by each literal from [min_lit] on that two cubes
     or more hold, in increasing order. *)
  let rec kernel1 cover min_lit cokernel =
    let lits, n = sorted_lits cover min_lit in
    let i = ref 0 in
    while !i < n do
      let l = lits.(!i) in
      let j = ref (!i + 1) in
      while !j < n && lits.(!j) = l do
        incr j
      done;
      if !j - !i >= 2 then begin
        let d = divide_by_cube cover [| l |] in
        let c = common_cube d in
        (* Skip if the common cube holds a literal below l: that
           kernel is found elsewhere. Otherwise [c]'s literals all
           exceed [l], so [l] followed by [c] is the sorted cube. *)
        if Array.length c = 0 || c.(0) > l then begin
          let k, lc =
            if Array.length c = 0 then (d, [| l |])
            else (divide_by_cube d c, Array.append [| l |] c)
          in
          let cok = match cube_mul lc cokernel with Some x -> x | None -> cokernel in
          add k cok;
          kernel1 k (l + 1) cok
        end
      end;
      i := !j
    done
  in
  if limit > 0 then begin
    try
      kernel1 cover 0 [||];
      if is_cube_free cover then add cover [||]
    with Full -> ()
  end;
  !results

let cofactor cover l =
  let nl = lit_compl l in
  List.filter_map
    (fun c ->
      if Array.exists (fun x -> x = nl) c then None
      else if not (Array.exists (fun x -> x = l) c) then Some c
      else begin
        let n = Array.length c in
        let out = Array.make (n - 1) 0 in
        let j = ref 0 in
        for i = 0 to n - 1 do
          let x = Array.unsafe_get c i in
          if x <> l then begin
            out.(!j) <- x;
            incr j
          end
        done;
        Some out
      end)
    cover

let most_frequent_var cover =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Array.iter
        (fun l ->
          let v = var_of l in
          Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
        c)
    cover;
  Hashtbl.fold
    (fun v n best ->
      match best with Some (_, bn) when bn >= n -> best | Some _ | None -> Some (v, n))
    counts None

let rec complement ~max_cubes cover =
  if is_const0 cover then Some [ [||] ]
  else if is_const1 cover then Some []
  else
    match cover with
    | [ c ] ->
      (* De Morgan on a single cube. *)
      Some (Array.to_list c |> List.map (fun l -> [| lit_compl l |]))
    | _ -> (
      match most_frequent_var cover with
      | None -> Some []
      | Some (v, _) ->
        let lp = lit_of v false and ln = lit_of v true in
        let f1 = cofactor cover lp in
        let f0 = cofactor cover ln in
        (match (complement ~max_cubes f1, complement ~max_cubes f0) with
        | Some n1, Some n0 ->
          let c1 = List.filter_map (fun c -> cube_mul [| lp |] c) n1 in
          let c0 = List.filter_map (fun c -> cube_mul [| ln |] c) n0 in
          normalize_bounded ~max_cubes (c1 @ c0)
        | _ -> None))

let eval cover assignment =
  List.exists
    (fun c ->
      Array.for_all
        (fun l -> if lit_is_compl l then not (assignment (var_of l)) else assignment (var_of l))
        c)
    cover

let canonical cover = List.sort_uniq cube_compare cover

(* Tautology check by Shannon recursion with the classic unate
   shortcuts: a cover with an empty cube is a tautology; a unate cover
   without an empty cube is not; otherwise split on the most frequent
   binate variable. *)
let rec tautology cover =
  if is_const1 cover then true
  else if cover = [] then false
  else begin
    (* Find a binate variable (appears in both phases). *)
    let pos = Hashtbl.create 16 and neg = Hashtbl.create 16 in
    List.iter
      (fun c ->
        Array.iter
          (fun l ->
            if lit_is_compl l then Hashtbl.replace neg (var_of l) ()
            else Hashtbl.replace pos (var_of l) ())
          c)
      cover;
    let binate = ref None in
    Hashtbl.iter
      (fun v () -> if !binate = None && Hashtbl.mem neg v then binate := Some v)
      pos;
    match !binate with
    | None ->
      (* Unate cover without the empty cube: every cube excludes at
         least the opposite phase of its own literals. *)
      false
    | Some v ->
      tautology (cofactor cover (lit_of v false))
      && tautology (cofactor cover (lit_of v true))
  end

let cube_covered cover c =
  (* cover / c == 1 ? Cofactor by every literal of the cube. *)
  let reduced = Array.fold_left (fun acc l -> cofactor acc l) cover c in
  tautology reduced

let expand cover =
  let rec expand_cube rest c =
    (* Try dropping each literal; keep the first enlargement that
       stays inside the full cover, then retry. *)
    let n = Array.length c in
    let rec try_drop i =
      if i >= n then c
      else begin
        let candidate = Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list c)) in
        if cube_covered (c :: rest) candidate then expand_cube rest candidate
        else try_drop (i + 1)
      end
    in
    if n = 0 then c else try_drop 0
  in
  let rec go acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let full_rest = List.rev_append acc rest in
      go (expand_cube full_rest c :: acc) rest
  in
  go [] cover

let irredundant cover =
  let rec go kept = function
    | [] -> List.rev kept
    | c :: rest ->
      let others = List.rev_append kept rest in
      if others <> [] && cube_covered others c then go kept rest else go (c :: kept) rest
  in
  go [] cover

let minimize cover = irredundant (normalize (expand cover))
