type t = { nvars : int; words : int64 array }

let max_vars = 16

(* Number of 64-bit words needed for [n] variables. *)
let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Bits of the last word that are meaningful when n < 6. *)
let word_mask n =
  if n >= 6 then -1L
  else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let num_vars t = t.nvars

let check_vars n =
  if n < 0 || n > max_vars then invalid_arg "Tt: variable count out of range"

let const0 n =
  check_vars n;
  { nvars = n; words = Array.make (nwords n) 0L }

let const1 n =
  check_vars n;
  { nvars = n; words = Array.make (nwords n) (word_mask n) }

(* Repeating patterns for variables living inside one word. *)
let var_pattern = [|
  0xAAAAAAAAAAAAAAAAL;
  0xCCCCCCCCCCCCCCCCL;
  0xF0F0F0F0F0F0F0F0L;
  0xFF00FF00FF00FF00L;
  0xFFFF0000FFFF0000L;
  0xFFFFFFFF00000000L;
|]

let var n i =
  check_vars n;
  if i < 0 || i >= n then invalid_arg "Tt.var";
  let w = nwords n in
  let words =
    if i < 6 then Array.make w (Int64.logand var_pattern.(i) (word_mask n))
    else
      Array.init w (fun j -> if (j lsr (i - 6)) land 1 = 1 then -1L else 0L)
  in
  { nvars = n; words }

let lift1 f a =
  let mask = word_mask a.nvars in
  { a with words = Array.map (fun w -> Int64.logand (f w) mask) a.words }

let lift2 name f a b =
  if a.nvars <> b.nvars then invalid_arg ("Tt." ^ name ^ ": arity mismatch");
  let mask = word_mask a.nvars in
  let words =
    Array.init (Array.length a.words) (fun i ->
        Int64.logand (f a.words.(i) b.words.(i)) mask)
  in
  { a with words }

let bnot a = lift1 Int64.lognot a
let band a b = lift2 "band" Int64.logand a b
let bor a b = lift2 "bor" Int64.logor a b
let bxor a b = lift2 "bxor" Int64.logxor a b
let bxnor a b = bnot (bxor a b)
let ite c a b = bor (band c a) (band (bnot c) b)
let mux sel a b = ite sel b a

(* Equality, constant tests and comparison are on the hot path of the
   refactoring engines (memo probes, degenerate-cofactor checks, ISOP
   recursion); hand-rolled word loops keep them allocation-free and
   off the polymorphic compare_val machinery. *)
let words_equal u v =
  let n = Array.length u in
  let rec go i =
    i = n || (Int64.equal (Array.unsafe_get u i) (Array.unsafe_get v i) && go (i + 1))
  in
  Array.length v = n && go 0

let equal a b = a.nvars = b.nvars && words_equal a.words b.words

(* [equal_not a b]: a = ~b, without materializing the complement (the
   decomposition search probes this per split variable). *)
let equal_not a b =
  a.nvars = b.nvars
  &&
  let mask = word_mask a.nvars in
  let u = a.words and v = b.words in
  let n = Array.length u in
  let rec go i =
    i = n
    || (Int64.equal (Array.unsafe_get u i)
          (Int64.logand (Int64.lognot (Array.unsafe_get v i)) mask)
       && go (i + 1))
  in
  go 0

let is_const0 a =
  let w = a.words in
  let n = Array.length w in
  let rec go i = i = n || (Int64.equal (Array.unsafe_get w i) 0L && go (i + 1)) in
  go 0

let is_const1 a =
  let mask = word_mask a.nvars in
  let w = a.words in
  let n = Array.length w in
  let rec go i = i = n || (Int64.equal (Array.unsafe_get w i) mask && go (i + 1)) in
  go 0

(* Every word goes through the mixer: [Hashtbl] masks the hash to its
   low bits, and a multiplicative fold leaves those bits equal for every
   table that does not depend on variable 5. *)
let hash a =
  Int64.to_int
    (Array.fold_left Sbm_util.Hash64.mix2 (Int64.of_int a.nvars) a.words)
  land max_int

(* Positive cofactor: every minterm reads the value it would have with
   variable [i] forced to 1; likewise for the negative cofactor. *)
let cofactor1 t i =
  if i < 0 || i >= t.nvars then invalid_arg "Tt.cofactor1";
  if i < 6 then begin
    let shift = 1 lsl i in
    let p = var_pattern.(i) in
    let f w =
      let hi = Int64.logand w p in
      Int64.logor hi (Int64.shift_right_logical hi shift)
    in
    lift1 f t
  end
  else begin
    let block = 1 lsl (i - 6) in
    let words =
      Array.init (Array.length t.words) (fun j ->
          if (j lsr (i - 6)) land 1 = 1 then t.words.(j)
          else t.words.(j + block))
    in
    { t with words }
  end

let cofactor0 t i =
  if i < 0 || i >= t.nvars then invalid_arg "Tt.cofactor0";
  if i < 6 then begin
    let shift = 1 lsl i in
    let p = var_pattern.(i) in
    let f w =
      let lo = Int64.logand w (Int64.lognot p) in
      Int64.logor lo (Int64.shift_left lo shift)
    in
    lift1 f t
  end
  else begin
    let block = 1 lsl (i - 6) in
    let words =
      Array.init (Array.length t.words) (fun j ->
          if (j lsr (i - 6)) land 1 = 1 then t.words.(j - block)
          else t.words.(j))
    in
    { t with words }
  end

(* Allocation-free dependence test: compare the two cofactors without
   materializing them (ISOP and [support] probe this per variable). *)
let depends_on t i =
  if i < 0 || i >= t.nvars then invalid_arg "Tt.depends_on";
  if i < 6 then begin
    let shift = 1 lsl i in
    let p = var_pattern.(i) in
    let np = Int64.lognot p in
    let w = t.words in
    let n = Array.length w in
    let rec go j =
      j < n
      && (let x = Array.unsafe_get w j in
          (not
             (Int64.equal
                (Int64.shift_right_logical (Int64.logand x p) shift)
                (Int64.logand x np)))
          || go (j + 1))
    in
    go 0
  end
  else begin
    let block = 1 lsl (i - 6) in
    let w = t.words in
    let n = Array.length w in
    let rec go j =
      j < n
      && ((j lsr (i - 6)) land 1 = 0
          && not (Int64.equal (Array.unsafe_get w j) (Array.unsafe_get w (j + block)))
         || go (j + 1))
    in
    go 0
  end

(* Fused resubstitution probes: compare a 2-input gate of optionally
   complemented divisors against a target without materializing the
   intermediate table. The 1-resub scan evaluates these for every
   divisor pair and phase — allocating [band]/[bxor] results there
   dominated the pass. *)
let and_match ~na a ~nb b c =
  if a.nvars <> b.nvars || a.nvars <> c.nvars then
    invalid_arg "Tt.and_match: arity mismatch";
  let mask = word_mask a.nvars in
  let wa = a.words and wb = b.words and wc = c.words in
  let n = Array.length wa in
  let rec go i eq eqn =
    if i = n then if eq then 0 else if eqn then 1 else -1
    else begin
      let x = Array.unsafe_get wa i in
      let x = if na then Int64.logand (Int64.lognot x) mask else x in
      let y = Array.unsafe_get wb i in
      let y = if nb then Int64.logand (Int64.lognot y) mask else y in
      let r = Int64.logand x y in
      let z = Array.unsafe_get wc i in
      let eq = eq && Int64.equal r z in
      let eqn = eqn && Int64.equal r (Int64.logand (Int64.lognot z) mask) in
      if eq || eqn then go (i + 1) eq eqn else -1
    end
  in
  go 0 true true

let xor_equal ~na a ~nb b c =
  if a.nvars <> b.nvars || a.nvars <> c.nvars then
    invalid_arg "Tt.xor_equal: arity mismatch";
  let mask = word_mask a.nvars in
  let wa = a.words and wb = b.words and wc = c.words in
  let n = Array.length wa in
  let rec go i =
    i = n
    || (let x = Array.unsafe_get wa i in
        let x = if na then Int64.logand (Int64.lognot x) mask else x in
        let y = Array.unsafe_get wb i in
        let y = if nb then Int64.logand (Int64.lognot y) mask else y in
        Int64.equal (Int64.logxor x y) (Array.unsafe_get wc i) && go (i + 1))
  in
  go 0

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let support t =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if depends_on t i then i :: acc else acc)
  in
  go (t.nvars - 1) []

let popcount64 w =
  let rec go w acc = if w = 0L then acc else go (Int64.logand w (Int64.sub w 1L)) (acc + 1) in
  go w 0

let count_ones t = Array.fold_left (fun acc w -> acc + popcount64 w) 0 t.words

(* Number of minterms where [a] and [b] agree: popcount of their XNOR,
   fused so the scoring loop of the decomposition search allocates
   nothing. *)
let agreement a b =
  if a.nvars <> b.nvars then invalid_arg "Tt.agreement: arity mismatch";
  let mask = word_mask a.nvars in
  let u = a.words and v = b.words in
  let n = Array.length u in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc :=
      !acc
      + popcount64
          (Int64.logand
             (Int64.lognot (Int64.logxor (Array.unsafe_get u i) (Array.unsafe_get v i)))
             mask)
  done;
  !acc

let get_bit t i =
  if i < 0 || i >= 1 lsl t.nvars then invalid_arg "Tt.get_bit";
  Int64.logand (Int64.shift_right_logical t.words.(i lsr 6) (i land 63)) 1L = 1L

let set_bit t i =
  if i < 0 || i >= 1 lsl t.nvars then invalid_arg "Tt.set_bit";
  let words = Array.copy t.words in
  words.(i lsr 6) <- Int64.logor words.(i lsr 6) (Int64.shift_left 1L (i land 63));
  { t with words }

let eval t assignment = get_bit t (assignment land ((1 lsl t.nvars) - 1))

(* Single-word constructor for cut functions (≤ 6 variables): avoids
   the bit-by-bit [of_bits] loop, which copies the table per set bit. *)
let of_word n w =
  check_vars n;
  if n > 6 then invalid_arg "Tt.of_word: more than 6 variables";
  { nvars = n; words = [| Int64.logand w (word_mask n) |] }

let of_bits n f =
  check_vars n;
  let t = ref (const0 n) in
  for i = 0 to (1 lsl n) - 1 do
    if f i then t := set_bit !t i
  done;
  !t

let random n rng =
  check_vars n;
  let mask = word_mask n in
  let words =
    Array.init (nwords n) (fun _ -> Int64.logand (Sbm_util.Rng.next64 rng) mask)
  in
  { nvars = n; words }

let expand t n =
  check_vars n;
  if n < t.nvars then invalid_arg "Tt.expand: shrinking";
  if n = t.nvars then t
  else begin
    let w = nwords n in
    let src = Array.length t.words in
    let mask = word_mask t.nvars in
    (* Low 2^nvars bits of the source repeat across the larger table. *)
    if t.nvars >= 6 then
      { nvars = n; words = Array.init w (fun j -> t.words.(j mod src)) }
    else begin
      (* Replicate the 2^nvars-bit block to fill a full word. *)
      let block_bits = 1 lsl t.nvars in
      let base = Int64.logand t.words.(0) mask in
      let word = ref 0L in
      let reps = 64 / block_bits in
      for k = 0 to reps - 1 do
        word := Int64.logor !word (Int64.shift_left base (k * block_bits))
      done;
      { nvars = n; words = Array.make w !word }
    end
  end

let permute t perm =
  if Array.length perm <> t.nvars then invalid_arg "Tt.permute";
  of_bits t.nvars (fun m ->
      (* Minterm m of the result assigns new variable j the bit m_j; the
         old variable i reads new variable perm.(i). *)
      let assignment = ref 0 in
      for i = 0 to t.nvars - 1 do
        if (m lsr perm.(i)) land 1 = 1 then assignment := !assignment lor (1 lsl i)
      done;
      get_bit t !assignment)

let flip t i =
  let v = var t.nvars i in
  ite v (cofactor0 t i) (cofactor1 t i)

let compose t i g =
  if g.nvars <> t.nvars then invalid_arg "Tt.compose";
  ite g (cofactor1 t i) (cofactor0 t i)

type cube = { pos : int; neg : int }

let cube_tt n c =
  let acc = ref (const1 n) in
  for i = 0 to n - 1 do
    if (c.pos lsr i) land 1 = 1 then acc := band !acc (var n i)
    else if (c.neg lsr i) land 1 = 1 then acc := band !acc (bnot (var n i))
  done;
  !acc

let cover_tt n cubes =
  List.fold_left (fun acc c -> bor acc (cube_tt n c)) (const0 n) cubes

(* Minato-Morreale ISOP: returns (cubes, cover-table) with
   lower <= cover <= upper. *)
let isop on dc =
  if on.nvars <> dc.nvars then invalid_arg "Tt.isop";
  let n = on.nvars in
  let rec go lower upper vars =
    if is_const0 lower then ([], const0 n)
    else if is_const1 upper then ([ { pos = 0; neg = 0 } ], const1 n)
    else
      match vars with
      | [] ->
        (* lower is nonzero and upper is not a tautology, yet no
           variable remains: only possible when lower depends on no
           listed variable; cover with the full cube of upper's care. *)
        ([ { pos = 0; neg = 0 } ], const1 n)
      | x :: rest ->
        if not (depends_on lower x) && not (depends_on upper x) then go lower upper rest
        else begin
          let l0 = cofactor0 lower x and l1 = cofactor1 lower x in
          let u0 = cofactor0 upper x and u1 = cofactor1 upper x in
          let cubes0, cov0 = go (band l0 (bnot u1)) u0 rest in
          let cubes1, cov1 = go (band l1 (bnot u0)) u1 rest in
          let lnew = bor (band l0 (bnot cov0)) (band l1 (bnot cov1)) in
          let cubes_rest, cov_rest = go lnew (band u0 u1) rest in
          let xbit = 1 lsl x in
          let cubes =
            List.map (fun c -> { c with neg = c.neg lor xbit }) cubes0
            @ List.map (fun c -> { c with pos = c.pos lor xbit }) cubes1
            @ cubes_rest
          in
          let vtt = var n x in
          let cover =
            bor (bor (band (bnot vtt) cov0) (band vtt cov1)) cov_rest
          in
          (cubes, cover)
        end
  in
  let vars = List.init n (fun i -> i) in
  let cubes, cover = go on (bor on dc) vars in
  assert (is_const0 (band on (bnot cover)));
  assert (is_const0 (band cover (bnot (bor on dc))));
  cubes

let to_string t =
  let buf = Buffer.create (Array.length t.words * 16) in
  let started = ref false in
  for i = Array.length t.words - 1 downto 0 do
    if !started then Buffer.add_string buf (Printf.sprintf "%016Lx" t.words.(i))
    else if t.words.(i) <> 0L || i = 0 then begin
      Buffer.add_string buf (Printf.sprintf "%Lx" t.words.(i));
      started := true
    end
  done;
  Buffer.contents buf
