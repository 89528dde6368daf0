(* SOP algebra: division identities, kernels, complementation —
   checked against semantic evaluation. *)

module Sop = Sbm_sop.Sop
module Rng = Sbm_util.Rng

(* Random cover over [nvars] variables. *)
let random_cover rng nvars ncubes max_lits =
  List.init ncubes (fun _ ->
      let nlits = 1 + Rng.int rng max_lits in
      let lits = ref [] in
      for _ = 1 to nlits do
        let v = Rng.int rng nvars in
        let l = Sop.lit_of v (Rng.bool rng) in
        (* keep cubes consistent: skip the literal if the variable
           already appears *)
        if not (List.exists (fun x -> Sop.var_of x = v) !lits) then lits := l :: !lits
      done;
      Sop.cube_of_list !lits)

let gen_cover =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nvars = int_range 2 6 in
    let* ncubes = int_range 1 6 in
    let rng = Rng.create seed in
    return (random_cover rng nvars ncubes 4, nvars))

let eval_cover cover m = Sop.eval cover (fun v -> (m lsr v) land 1 = 1)

let semantically_equal nvars a b =
  let ok = ref true in
  for m = 0 to (1 lsl nvars) - 1 do
    if eval_cover a m <> eval_cover b m then ok := false
  done;
  !ok

let test_normalize_preserves =
  Helpers.qcheck_case "normalize preserves semantics" gen_cover (fun (c, n) ->
      semantically_equal n c (Sop.normalize c))

(* Reference absorption scans all other cubes; [normalize] scans only
   the shorter ones. Both must agree, and [normalize_bounded] must
   agree with them at every bound. *)
let gen_wide_cover =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* ncubes = int_range 0 40 in
    let rng = Rng.create seed in
    return (random_cover rng 5 ncubes 4))

let test_normalize_bounded =
  Helpers.qcheck_case "normalize keeps the minimal cubes; bounded agrees" gen_wide_cover
    (fun c ->
      let sorted = Sop.canonical c in
      let reference =
        List.filter
          (fun x ->
            not (List.exists (fun d -> d != x && Sop.cube_contains x d) sorted))
          sorted
      in
      let n = Sop.normalize c in
      n = reference
      && List.for_all
           (fun max_cubes ->
             Sop.normalize_bounded ~max_cubes c
             = if List.length n <= max_cubes then Some n else None)
           [ 0; 1; 2; 5; 10; 40 ])

let test_division_identity =
  Helpers.qcheck_case "f = q*d + r (algebraic division)"
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun ((f, nf), (d, nd)) ->
      let n = max nf nd in
      QCheck2.assume (not (Sop.is_const0 d));
      let q, r = Sop.divide f d in
      let rebuilt = Sop.mul q d @ r in
      semantically_equal n f rebuilt)

let test_divide_by_cube =
  Helpers.qcheck_case "cube division is exact" gen_cover (fun (f, n) ->
      match f with
      | [] -> true
      | first :: _ when Array.length first > 0 ->
        let l = first.(0) in
        let q = Sop.divide_by_cube f [| l |] in
        let r = List.filter (fun c -> not (Array.exists (fun x -> x = l) c)) f in
        let rebuilt = List.filter_map (fun qc -> Sop.cube_mul qc [| l |]) q @ r in
        semantically_equal n f rebuilt
      | _ -> true)

let test_kernels_are_cube_free =
  Helpers.qcheck_case "kernels are cube-free quotients" gen_cover (fun (f, _) ->
      List.for_all
        (fun (k, _) -> Sop.is_cube_free k || List.length k <= 1)
        (Sop.kernels_bounded ~limit:50 f))

let test_kernel_division =
  Helpers.qcheck_case "dividing by a kernel leaves no empty quotient" gen_cover
    (fun (f, n) ->
      List.for_all
        (fun (k, _) ->
          if List.length k < 2 then true
          else begin
            let q, r = Sop.divide f k in
            q = [] || semantically_equal n f (Sop.mul q k @ r)
          end)
        (Sop.kernels_bounded ~limit:20 f))

(* [kernels_bounded] as it was before the enumeration stopped at its
   limit and skipped the empty common cube, with the cube division and
   the common cube of that time: the sequence the faster enumeration
   must reproduce, order included. *)
let reference_kernels_bounded ~limit cover =
  let mem l c = Array.exists (fun x -> x = l) c in
  let divide_by_cube cover c =
    List.filter_map
      (fun cb ->
        if Array.for_all (fun l -> mem l cb) c then
          Some (Array.of_list (List.filter (fun l -> not (mem l c)) (Array.to_list cb)))
        else None)
      cover
  in
  let common_cube = function
    | [] -> [||]
    | first :: rest ->
      List.fold_left
        (fun acc c -> Array.of_list (List.filter (fun l -> mem l c) (Array.to_list acc)))
        first rest
  in
  let literal_counts cover =
    let lits = Array.concat cover in
    Array.sort Int.compare lits;
    let rec runs i acc =
      if i < 0 then acc
      else begin
        let l = lits.(i) in
        let j = ref i in
        while !j > 0 && lits.(!j - 1) = l do
          decr j
        done;
        runs (!j - 1) ((l, i - !j + 1) :: acc)
      end
    in
    runs (Array.length lits - 1) []
  in
  let results = ref [] in
  let count = ref 0 in
  let add kernel cokernel =
    if !count < limit then begin
      incr count;
      results := (kernel, cokernel) :: !results
    end
  in
  let rec kernel1 cover min_lit cokernel =
    if !count >= limit then ()
    else
      List.iter
        (fun (l, occurrences) ->
          if l >= min_lit && occurrences >= 2 then begin
            let d = divide_by_cube cover [| l |] in
            let c = common_cube d in
            if not (Array.exists (fun x -> x < l) c) then begin
              let k = divide_by_cube d c in
              let cok =
                match Sop.cube_mul (Sop.cube_of_list (l :: Array.to_list c)) cokernel with
                | Some x -> x
                | None -> cokernel
              in
              add k cok;
              kernel1 k (l + 1) cok
            end
          end)
        (literal_counts cover)
  in
  kernel1 cover 0 [||];
  if Array.length (common_cube cover) = 0 && cover <> [] then add cover [||];
  !results

(* Covers with enough shared literals to hold dozens of kernels. *)
let gen_kernel_cover =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nvars = int_range 3 10 in
    let* ncubes = int_range 1 24 in
    let rng = Rng.create seed in
    return (random_cover rng nvars ncubes 5))

let test_kernels_bounded_reference =
  Helpers.qcheck_case ~count:200 "kernels_bounded: the reference list, in order, at every limit"
    gen_kernel_cover (fun f ->
      List.for_all
        (fun limit -> Sop.kernels_bounded ~limit f = reference_kernels_bounded ~limit f)
        [ 1; 2; 5; 30; 1000 ])

let test_complement =
  Helpers.qcheck_case "complement is exact" gen_cover (fun (f, n) ->
      match Sop.complement ~max_cubes:2000 f with
      | None -> true
      | Some g ->
        let ok = ref true in
        for m = 0 to (1 lsl n) - 1 do
          if eval_cover f m = eval_cover g m then ok := false
        done;
        !ok)

let test_cofactor =
  Helpers.qcheck_case "cofactor semantics" gen_cover (fun (f, n) ->
      QCheck2.assume (n > 0);
      let l = Sop.lit_of 0 false in
      let c = Sop.cofactor f l in
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let m1 = m lor 1 in
        if eval_cover f m1 <> eval_cover c m1 then ok := false
      done;
      !ok)

let test_common_cube () =
  let c1 = Sop.cube_of_list [ Sop.lit_of 0 false; Sop.lit_of 1 false ] in
  let c2 = Sop.cube_of_list [ Sop.lit_of 0 false; Sop.lit_of 2 true ] in
  Alcotest.(check (list int))
    "common cube ab, ac' = a"
    [ Sop.lit_of 0 false ]
    (Array.to_list (Sop.common_cube [ c1; c2 ]))

let test_absorption () =
  (* a + ab = a *)
  let a = Sop.cube_of_list [ Sop.lit_of 0 false ] in
  let ab = Sop.cube_of_list [ Sop.lit_of 0 false; Sop.lit_of 1 false ] in
  Alcotest.(check int) "absorbed" 1 (List.length (Sop.normalize [ a; ab ]))

let test_textbook_kernels () =
  (* F = adf + aef + bdf + bef + cdf + cef + g (textbook example):
     kernels include (a+b+c) and (d+e). *)
  let lit v = Sop.lit_of v false in
  let a, b, c, d, e, f, g = (lit 0, lit 1, lit 2, lit 3, lit 4, lit 5, lit 6) in
  let cover =
    [
      Sop.cube_of_list [ a; d; f ];
      Sop.cube_of_list [ a; e; f ];
      Sop.cube_of_list [ b; d; f ];
      Sop.cube_of_list [ b; e; f ];
      Sop.cube_of_list [ c; d; f ];
      Sop.cube_of_list [ c; e; f ];
      Sop.cube_of_list [ g ];
    ]
  in
  let kernels = Sop.kernels_bounded ~limit:max_int cover |> List.map fst in
  let has k = List.exists (fun k' -> Sop.canonical k' = Sop.canonical k) kernels in
  let de = [ Sop.cube_of_list [ d ]; Sop.cube_of_list [ e ] ] in
  let abc = [ Sop.cube_of_list [ a ]; Sop.cube_of_list [ b ]; Sop.cube_of_list [ c ] ] in
  Alcotest.(check bool) "kernel d+e" true (has de);
  Alcotest.(check bool) "kernel a+b+c" true (has abc)

let suite =
  [
    test_normalize_preserves;
    test_normalize_bounded;
    test_division_identity;
    test_divide_by_cube;
    test_kernels_are_cube_free;
    test_kernel_division;
    test_kernels_bounded_reference;
    test_complement;
    test_cofactor;
    Alcotest.test_case "common cube" `Quick test_common_cube;
    Alcotest.test_case "absorption" `Quick test_absorption;
    Alcotest.test_case "textbook kernels" `Quick test_textbook_kernels;
  ]
