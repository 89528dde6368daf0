type t = { nvars : int; words : int64 array }

let max_vars = 16

(* Number of 64-bit words needed for [n] variables. *)
let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Bits of the last word that are meaningful when n < 6. *)
let[@inline] word_mask n =
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
   refactoring engines (memo probes, support compaction); hand-rolled
   word loops keep them allocation-free and off the polymorphic
   compare_val machinery. *)
let words_equal u v =
  let n = Array.length u in
  let rec go i =
    i = n || (Int64.equal (Array.unsafe_get u i) (Array.unsafe_get v i) && go (i + 1))
  in
  Array.length v = n && go 0

let equal a b = a.nvars = b.nvars && words_equal a.words b.words

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

(* [Sbm_util.Hash64.mix2], repeated here so that it inlines: dune's
   default (dev) profile compiles with -opaque, so a call into another
   module boxes each int64 argument and result. *)
let[@inline] mix2 h w =
  let open Int64 in
  let z = add (mul h Sbm_util.Hash64.golden) w in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* [hash] of [a xor b] or of its complement, whichever has bit 0
   clear, without building either: the mask flips every word when bit
   0 of [a xor b] is set. *)
let xor_hash a b =
  if a.nvars <> b.nvars then invalid_arg "Tt.xor_hash: arity mismatch";
  let wa = a.words and wb = b.words in
  let flip =
    if Int64.equal (Int64.logand (Int64.logxor wa.(0) wb.(0)) 1L) 0L then 0L
    else word_mask a.nvars
  in
  let h = ref (Int64.of_int a.nvars) in
  for i = 0 to Array.length wa - 1 do
    h :=
      mix2 !h
        (Int64.logxor (Int64.logxor (Array.unsafe_get wa i) (Array.unsafe_get wb i)) flip)
  done;
  Int64.to_int !h land max_int

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
   materializing them ([support] and the decomposition search's support
   compaction probe this per variable). *)
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

(* [squeeze w i] packs the bits of [w] at positions whose bit [i] is 0
   into the low 32 positions, in order. Step [j] moves the bits whose
   position has bit [j] set down into bit [j - 1], which the step before
   emptied. *)
let squeeze w i =
  let w = ref (Int64.logand w (Int64.lognot var_pattern.(i))) in
  for j = i + 1 to 5 do
    let p = var_pattern.(j) in
    w :=
      Int64.logor
        (Int64.logand !w (Int64.lognot p))
        (Int64.shift_right_logical (Int64.logand !w p) (1 lsl (j - 1)))
  done;
  !w

(* Cofactor that removes the variable: [n - 1] variables, half the
   words. Minterm [m] of the result reads minterm [m] of the source
   with bit [i] inserted as [b]. *)
let drop t i b =
  if i < 0 || i >= t.nvars then invalid_arg "Tt.drop";
  let n = t.nvars in
  let src = t.words in
  let words =
    if i < 6 then begin
      let half w = squeeze (if b then Int64.shift_right_logical w (1 lsl i) else w) i in
      if n <= 6 then [| Int64.logand (half src.(0)) (word_mask (n - 1)) |]
      else
        Array.init (nwords (n - 1)) (fun k ->
            Int64.logor (half src.(2 * k)) (Int64.shift_left (half src.((2 * k) + 1)) 32))
    end
    else begin
      (* Word [k] of the result is the source word whose index is [k]
         with bit [i - 6] inserted as [b]. *)
      let s = i - 6 in
      let low = (1 lsl s) - 1 in
      let hi = if b then 1 lsl s else 0 in
      Array.init (nwords (n - 1)) (fun k ->
          src.((k land low) lor ((k lsr s) lsl (s + 1)) lor hi))
    end
  in
  { nvars = n - 1; words }

let split_compl = 1
let split_f0_zero = 2
let split_f1_zero = 4
let split_f0_one = 8
let split_f1_one = 16
let split_agreement p = p lsr 5

(* Population count of a word, on immediate ints (the top half and the
   low half, SWAR within each) so that it boxes nothing. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

let[@inline] popcount_word w =
  popcount32 (Int64.to_int w land 0xFFFFFFFF)
  + popcount32 (Int64.to_int (Int64.shift_right_logical w 32))

(* One pass compares the two cofactors position by position: [lo] and
   [hi] hold f0 and f1 on the [valid] positions of pair [k]. For [i < 6]
   pair [k] is word [k], shifted by [2^i] for f1, and the positions
   where variable [i] is 0; for [i >= 6] it is the word whose index is
   [k] with bit [i - 6] inserted as 0, against the word [2^(i-6)] above
   it. Every step is an unboxed word operation: no branch yields an
   [int64]. *)
let split t i =
  if i < 0 || i >= t.nvars then invalid_arg "Tt.split";
  let w = t.words in
  let wide = i >= 6 in
  let s = i - 6 in
  let low = if wide then (1 lsl s) - 1 else 0 in
  let above = if wide then low + 1 else 0 in
  let shift = if wide then 0 else 1 lsl i in
  let valid =
    Int64.logand
      (Int64.lognot (if wide then 0L else var_pattern.(i)))
      (word_mask t.nvars)
  in
  let compl = ref true and f0_zero = ref true and f1_zero = ref true in
  let f0_one = ref true and f1_one = ref true and agree = ref 0 in
  for k = 0 to (if wide then Array.length w / 2 else Array.length w) - 1 do
    let j = if wide then (k land low) lor ((k lsr s) lsl (s + 1)) else k in
    let lo = Int64.logand (Array.unsafe_get w j) valid in
    let hi =
      Int64.logand (Int64.shift_right_logical (Array.unsafe_get w (j + above)) shift) valid
    in
    let d = Int64.logxor lo hi in
    compl := !compl && Int64.equal d valid;
    f0_zero := !f0_zero && Int64.equal lo 0L;
    f1_zero := !f1_zero && Int64.equal hi 0L;
    f0_one := !f0_one && Int64.equal lo valid;
    f1_one := !f1_one && Int64.equal hi valid;
    agree := !agree + popcount_word (Int64.logand (Int64.lognot d) valid)
  done;
  (if !compl then split_compl else 0)
  lor (if !f0_zero then split_f0_zero else 0)
  lor (if !f1_zero then split_f1_zero else 0)
  lor (if !f0_one then split_f0_one else 0)
  lor (if !f1_one then split_f1_one else 0)
  lor (!agree lsl 5)

(* Phased AND in one allocation: the tables keep the bits above [2^n]
   clear, so complementing an operand is an XOR with the mask. *)
let and_phase ~na a ~nb b =
  if a.nvars <> b.nvars then invalid_arg "Tt.and_phase: arity mismatch";
  let mask = word_mask a.nvars in
  let ma = if na then mask else 0L and mb = if nb then mask else 0L in
  let wa = a.words and wb = b.words in
  let words =
    Array.init (Array.length wa) (fun i ->
        Int64.logand
          (Int64.logxor (Array.unsafe_get wa i) ma)
          (Int64.logxor (Array.unsafe_get wb i) mb))
  in
  { a with words }

type gate = And | Nand | Xor | No_gate

(* The 1-resub probe: one word pass tests the AND, its complement and
   the XOR of the phased operands against the target at once, without
   materializing any of them, and stops at the first word where all
   three fail. The resub scan runs it for every divisor pair and
   phase. *)
let gate_match ~na a ~nb b c =
  if a.nvars <> b.nvars || a.nvars <> c.nvars then
    invalid_arg "Tt.gate_match: arity mismatch";
  let mask = word_mask a.nvars in
  let ma = if na then mask else 0L and mb = if nb then mask else 0L in
  let wa = a.words and wb = b.words and wc = c.words in
  let n = Array.length wa in
  let rec go i and_ nand xor =
    if i = n then if and_ then And else if nand then Nand else if xor then Xor else No_gate
    else begin
      let x = Int64.logxor (Array.unsafe_get wa i) ma in
      let y = Int64.logxor (Array.unsafe_get wb i) mb in
      let z = Array.unsafe_get wc i in
      let r = Int64.logand x y in
      let and_ = and_ && Int64.equal r z in
      let nand = nand && Int64.equal r (Int64.logxor z mask) in
      let xor = xor && Int64.equal (Int64.logxor x y) z in
      if and_ || nand || xor then go (i + 1) and_ nand xor else No_gate
    end
  in
  go 0 true true true

let[@inline] flag_nonzero bit w = if Int64.equal w 0L then 0 else bit

(* An AND's output lies inside each of its operands, so [±d] can only
   be an operand of an AND giving [c] if [c] lies inside it, and of a
   NAND giving [c] if [¬c] does. The four containments in one pass. *)
let and_operand d c =
  if d.nvars <> c.nvars then invalid_arg "Tt.and_operand: arity mismatch";
  let mask = word_mask d.nvars in
  let wd = d.words and wc = c.words in
  let n = Array.length wd in
  let rec go i fits =
    if i = n || fits = 0 then fits
    else begin
      let x = Array.unsafe_get wd i and z = Array.unsafe_get wc i in
      let nx = Int64.logxor x mask and nz = Int64.logxor z mask in
      let lost =
        flag_nonzero 1 (Int64.logand z nx) lor flag_nonzero 2 (Int64.logand z x)
        lor flag_nonzero 4 (Int64.logand nz nx) lor flag_nonzero 8 (Int64.logand nz x)
      in
      go (i + 1) (fits land lnot lost)
    end
  in
  go 0 15

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

let count_ones t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

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

let to_word t =
  if t.nvars > 6 then invalid_arg "Tt.to_word: more than 6 variables";
  t.words.(0)

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
