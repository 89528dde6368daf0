(* Truth-table engine: algebra laws, cofactors, support, ISOP —
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

let test_isop_covers =
  Helpers.qcheck_case "isop covers onset exactly (no dc)" gen_tt (fun t ->
      let n = Tt.num_vars t in
      let cubes = Tt.isop t (Tt.const0 n) in
      Tt.equal (Tt.cover_tt n cubes) t)

let test_isop_with_dc =
  Helpers.qcheck_case "isop within bounds (with dc)" gen_tt_pair (fun (f, d) ->
      let n = Tt.num_vars f in
      let on = Tt.band f (Tt.bnot d) in
      let cubes = Tt.isop on d in
      let cover = Tt.cover_tt n cubes in
      Tt.is_const0 (Tt.band on (Tt.bnot cover))
      && Tt.is_const0 (Tt.band cover (Tt.bnot (Tt.bor on d))))

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

(* The decomposition memos key [Tt.Tbl] by the cofactors of the
   functions they split; a cofactor on variable 5 repeats each word's
   low half in its high half. Over 200 random tables per width of 7–10
   inputs and both cofactors on every variable, no bucket holds more
   than a handful of bindings. *)
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
    test_isop_covers;
    test_isop_with_dc;
    test_permute_roundtrip;
    test_compose_semantics;
    test_expand;
    test_flip;
  ]
