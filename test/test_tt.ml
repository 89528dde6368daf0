(* Truth-table engine: algebra laws, cofactors, split profiles, support —
   mostly property-based. *)

module Tt = Sbm_truthtable.Tt
module Rng = Sbm_util.Rng

let gen_nvars = QCheck2.Gen.int_range 0 9

let gen_tt =
  QCheck2.Gen.(
    pair gen_nvars (int_bound 1_000_000)
    |> map (fun (n, seed) -> Tt.random n (Rng.create seed)))

let gen_tt_pair =
  QCheck2.Gen.(
    triple gen_nvars (int_bound 1_000_000) (int_bound 1_000_000)
    |> map (fun (n, s1, s2) ->
           (Tt.random n (Rng.create s1), Tt.random n (Rng.create s2))))

let test_var_semantics () =
  for n = 1 to 8 do
    for i = 0 to n - 1 do
      let v = Tt.var n i in
      for m = 0 to min 255 ((1 lsl n) - 1) do
        Alcotest.(check bool)
          (Printf.sprintf "var %d of %d at %d" i n m)
          ((m lsr i) land 1 = 1)
          (Tt.get_bit v m)
      done
    done
  done

let test_cofactor_semantics () =
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let n = 1 + Rng.int rng 8 in
    let t = Tt.random n rng in
    let i = Rng.int rng n in
    let c0 = Tt.cofactor0 t i and c1 = Tt.cofactor1 t i in
    for m = 0 to (1 lsl n) - 1 do
      let m0 = m land lnot (1 lsl i) in
      let m1 = m lor (1 lsl i) in
      Alcotest.(check bool) "cof0" (Tt.get_bit t m0) (Tt.get_bit c0 m);
      Alcotest.(check bool) "cof1" (Tt.get_bit t m1) (Tt.get_bit c1 m)
    done
  done

let test_shannon_expansion =
  Helpers.qcheck_case "shannon expansion rebuilds the function"
    QCheck2.Gen.(pair gen_tt (int_bound 100))
    (fun (t, i) ->
      let n = Tt.num_vars t in
      QCheck2.assume (n > 0);
      let i = i mod n in
      let x = Tt.var n i in
      let rebuilt = Tt.ite x (Tt.cofactor1 t i) (Tt.cofactor0 t i) in
      Tt.equal t rebuilt)

let test_de_morgan =
  Helpers.qcheck_case "de morgan" gen_tt_pair (fun (a, b) ->
      Tt.equal (Tt.bnot (Tt.band a b)) (Tt.bor (Tt.bnot a) (Tt.bnot b)))

let test_xor_identities =
  Helpers.qcheck_case "xor identities" gen_tt_pair (fun (a, b) ->
      Tt.equal (Tt.bxor a b) (Tt.bxor b a)
      && Tt.is_const0 (Tt.bxor a a)
      && Tt.equal (Tt.bxor a (Tt.bxor a b)) b)

let test_double_negation =
  Helpers.qcheck_case "double negation" gen_tt (fun t -> Tt.equal t (Tt.bnot (Tt.bnot t)))

let test_support_only_real_vars =
  Helpers.qcheck_case "cofactored variables leave the support"
    QCheck2.Gen.(pair gen_tt (int_bound 100))
    (fun (t, i) ->
      let n = Tt.num_vars t in
      QCheck2.assume (n > 0);
      let i = i mod n in
      not (List.mem i (Tt.support (Tt.cofactor0 t i))))

let test_count_ones =
  Helpers.qcheck_case "count_ones matches get_bit" gen_tt (fun t ->
      let n = Tt.num_vars t in
      let count = ref 0 in
      for m = 0 to (1 lsl n) - 1 do
        if Tt.get_bit t m then incr count
      done;
      !count = Tt.count_ones t)

(* Tables of 1–12 variables, some ignoring variables (so that the
   cofactors are constant or complementary on some splits). *)
let gen_split_case =
  QCheck2.Gen.(
    triple (int_range 1 12) (int_bound 1_000_000) (int_range 0 3)
    |> map (fun (n, seed, shape) ->
           let rng = Rng.create seed in
           let t = Tt.random n rng in
           let x = Tt.var n (Rng.int rng n) in
           match shape with
           | 0 -> t
           | 1 -> Tt.band x (Tt.cofactor0 t (Rng.int rng n))
           | 2 -> Tt.bor x (Tt.cofactor1 t (Rng.int rng n))
           | _ -> Tt.bxor x t))

let test_drop_matches_cofactors =
  Helpers.qcheck_case "drop reads the cofactor on every minterm" gen_split_case (fun t ->
      let n = Tt.num_vars t in
      List.for_all
        (fun i ->
          List.for_all
            (fun b ->
              let d = Tt.drop t i b in
              let c = if b then Tt.cofactor1 t i else Tt.cofactor0 t i in
              let low = (1 lsl i) - 1 in
              Tt.num_vars d = n - 1
              && List.for_all
                   (fun m ->
                     let m' = (m land low) lor ((m land lnot low) lsl 1) in
                     Tt.get_bit d m = Tt.get_bit c m')
                   (List.init (1 lsl (n - 1)) Fun.id))
            [ false; true ])
        (List.init n Fun.id))

let test_split_matches_cofactors =
  Helpers.qcheck_case "split profile matches the materialized cofactors" gen_split_case
    (fun t ->
      let n = Tt.num_vars t in
      List.for_all
        (fun i ->
          let p = Tt.split t i in
          let f0 = Tt.cofactor0 t i and f1 = Tt.cofactor1 t i in
          let flag bit = p land bit <> 0 in
          flag Tt.split_compl = Tt.equal f0 (Tt.bnot f1)
          && flag Tt.split_f0_zero = Tt.is_const0 f0
          && flag Tt.split_f1_zero = Tt.is_const0 f1
          && flag Tt.split_f0_one = Tt.is_const1 f0
          && flag Tt.split_f1_one = Tt.is_const1 f1
          (* The full-width cofactors count each assignment of the
             other variables twice. *)
          && 2 * Tt.split_agreement p = Tt.count_ones (Tt.bxnor f0 f1))
        (List.init n Fun.id))

let test_permute_roundtrip =
  Helpers.qcheck_case "permute by inverse is identity"
    QCheck2.Gen.(pair gen_tt (int_bound 1_000_000))
    (fun (t, seed) ->
      let n = Tt.num_vars t in
      QCheck2.assume (n > 0);
      let rng = Rng.create seed in
      (* Random permutation by sorting random keys. *)
      let keyed = Array.init n (fun i -> (Rng.bits rng, i)) in
      Array.sort compare keyed;
      let perm = Array.map snd keyed in
      let inv = Array.make n 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      Tt.equal t (Tt.permute (Tt.permute t perm) inv))

let test_compose_semantics =
  Helpers.qcheck_case "compose matches substitution"
    QCheck2.Gen.(triple gen_tt (int_bound 1_000_000) (int_bound 100))
    (fun (t, seed, iv) ->
      let n = Tt.num_vars t in
      QCheck2.assume (n > 0 && n <= 8);
      let i = iv mod n in
      let g = Tt.random n (Rng.create seed) in
      let composed = Tt.compose t i g in
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let gv = Tt.get_bit g m in
        let m' = if gv then m lor (1 lsl i) else m land lnot (1 lsl i) in
        if Tt.get_bit composed m <> Tt.get_bit t m' then ok := false
      done;
      !ok)

let test_expand =
  Helpers.qcheck_case "expand keeps low-variable semantics" gen_tt (fun t ->
      let n = Tt.num_vars t in
      QCheck2.assume (n <= 8);
      let t' = Tt.expand t (n + 2) in
      let ok = ref true in
      for m = 0 to (1 lsl (n + 2)) - 1 do
        if Tt.get_bit t' m <> Tt.get_bit t (m land ((1 lsl n) - 1)) then ok := false
      done;
      !ok)

let test_flip =
  Helpers.qcheck_case "flip twice is identity"
    QCheck2.Gen.(pair gen_tt (int_bound 100))
    (fun (t, iv) ->
      let n = Tt.num_vars t in
      QCheck2.assume (n > 0);
      let i = iv mod n in
      Tt.equal t (Tt.flip (Tt.flip t i) i))

let test_to_word_roundtrip =
  Helpers.qcheck_case "to_word reads back of_word's low 2^n bits"
    QCheck2.Gen.(pair (int_range 0 6) int64)
    (fun (n, w) ->
      let mask = if n = 6 then -1L else Int64.pred (Int64.shift_left 1L (1 lsl n)) in
      Tt.to_word (Tt.of_word n w) = Int64.logand w mask)

let test_to_word_rejects_wide_tables () =
  for n = 7 to Tt.max_vars do
    Alcotest.check_raises (Printf.sprintf "%d variables" n)
      (Invalid_argument "Tt.to_word: more than 6 variables") (fun () ->
        ignore (Tt.to_word (Tt.const1 n)))
  done

(* [Tt.Tbl] keys memos by cofactor tables; a cofactor on variable 5
   that keeps the variable repeats each word's low half in its high
   half. Over 200 random tables per width of 7–10 inputs and both
   cofactors on every variable, no bucket holds more than a handful of
   bindings. *)
let test_tbl_buckets () =
  let tbl = Tt.Tbl.create 64 in
  let rng = Rng.create 25 in
  for n = 7 to 10 do
    for _ = 1 to 200 do
      let t = Tt.random n rng in
      Tt.Tbl.replace tbl t ();
      for i = 0 to n - 1 do
        Tt.Tbl.replace tbl (Tt.cofactor0 t i) ();
        Tt.Tbl.replace tbl (Tt.cofactor1 t i) ()
      done
    done
  done;
  let stats = Tt.Tbl.stats tbl in
  Alcotest.(check bool)
    (Printf.sprintf "longest bucket %d of %d bindings" stats.max_bucket_length
       stats.num_bindings)
    true
    (stats.num_bindings > 10_000 && stats.max_bucket_length <= 16)

(* The 1-resub probe against the test it replaced: AND (then its
   complement) of the phased operands, then their XOR, spelled with
   the plain operators. Targets are drawn so that every verdict occurs,
   including an all-zero pair where AND and XOR both hold and AND must
   win. *)
let gen_gate_case =
  QCheck2.Gen.(
    quad (int_range 1 8) (int_bound 5) (int_bound 3) (triple (int_bound 1_000_000)
      (int_bound 1_000_000) (int_bound 1_000_000))
    |> map (fun (n, kind, phase, (s1, s2, s3)) ->
           let a = Tt.random n (Rng.create s1) and b = Tt.random n (Rng.create s2) in
           let a, b = if kind = 5 then (Tt.const0 n, Tt.const0 n) else (a, b) in
           let x = if phase >= 2 then Tt.bnot a else a in
           let y = if phase land 1 = 1 then Tt.bnot b else b in
           let c =
             match kind with
             | 0 -> Tt.random n (Rng.create s3)
             | 1 -> Tt.band x y
             | 2 -> Tt.bnot (Tt.band x y)
             | 3 -> Tt.bxor x y
             | _ -> Tt.const0 n
           in
           (a, b, c)))

let test_gate_match_oracle =
  Helpers.qcheck_case ~count:300 "gate_match and and_phase equal the plain operators"
    gen_gate_case (fun (a, b, c) ->
      List.for_all
        (fun (na, nb) ->
          let x = if na then Tt.bnot a else a and y = if nb then Tt.bnot b else b in
          let r = Tt.band x y in
          let want : Tt.gate =
            if Tt.equal r c then And
            else if Tt.equal r (Tt.bnot c) then Nand
            else if Tt.equal (Tt.bxor x y) c then Xor
            else No_gate
          in
          Tt.gate_match ~na a ~nb b c = want && Tt.equal (Tt.and_phase ~na a ~nb b) r)
        [ (false, false); (false, true); (true, false); (true, true) ])

(* [and_operand d c]'s four bits are the four containments, spelled
   with the plain operators. *)
let test_and_operand =
  Helpers.qcheck_case ~count:300 "and_operand is the four containments" gen_gate_case
    (fun (a, _, c) ->
      let inside x y = Tt.is_const0 (Tt.band x (Tt.bnot y)) in
      let want =
        List.fold_left
          (fun acc (bit, x, y) -> if inside x y then acc lor bit else acc)
          0
          [ (1, c, a); (2, c, Tt.bnot a); (4, Tt.bnot c, a); (8, Tt.bnot c, Tt.bnot a) ]
      in
      Tt.and_operand a c = want)

(* [xor_hash a b] depends only on [a xor b] up to complement, so tables
   equal up to complement hash equal, and it is [hash] of the one with
   bit 0 clear. *)
let test_xor_hash =
  Helpers.qcheck_case ~count:300 "xor_hash agrees up to complement" gen_tt_pair
    (fun (a, b) ->
      let x = Tt.bxor a b and zero = Tt.const0 (Tt.num_vars a) in
      let h = Tt.xor_hash a b in
      List.for_all (fun h' -> h' = h)
        [ Tt.xor_hash b a; Tt.xor_hash (Tt.bnot a) b; Tt.xor_hash a (Tt.bnot b);
          Tt.xor_hash x zero; Tt.xor_hash (Tt.bnot x) zero;
          Tt.hash (if Tt.get_bit x 0 then Tt.bnot x else x) ])

let suite =
  [
    Alcotest.test_case "Tbl spreads cofactor tables" `Quick test_tbl_buckets;
    Alcotest.test_case "variable projections" `Quick test_var_semantics;
    Alcotest.test_case "cofactor semantics" `Quick test_cofactor_semantics;
    test_shannon_expansion;
    test_de_morgan;
    test_xor_identities;
    test_double_negation;
    test_support_only_real_vars;
    test_count_ones;
    test_drop_matches_cofactors;
    test_split_matches_cofactors;
    test_permute_roundtrip;
    test_compose_semantics;
    test_expand;
    test_flip;
    test_to_word_roundtrip;
    Alcotest.test_case "to_word rejects tables above 6 variables" `Quick
      test_to_word_rejects_wide_tables;
    test_gate_match_oracle;
    test_and_operand;
    test_xor_hash;
  ]
