(* Cut enumeration and resynthesis: cut functions must match cone
   simulation; Synth must rebuild any truth table exactly. *)

module Aig = Sbm_aig.Aig
module Cut = Sbm_aig.Cut
module Tt = Sbm_truthtable.Tt
module Rng = Sbm_util.Rng

(* Evaluate the function of [node] over given leaf values by local
   recursion. *)
let cone_value aig node leaves leaf_values =
  let memo = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace memo l leaf_values.(i)) leaves;
  Hashtbl.replace memo 0 false;
  let rec eval v =
    match Hashtbl.find_opt memo v with
    | Some b -> b
    | None ->
      let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
      let v0 = eval (Aig.node_of f0) in
      let v0 = if Aig.is_compl f0 then not v0 else v0 in
      let v1 = eval (Aig.node_of f1) in
      let v1 = if Aig.is_compl f1 then not v1 else v1 in
      let b = v0 && v1 in
      Hashtbl.replace memo v b;
      b
  in
  eval node

let check_cut_functions aig cuts_of v =
  List.iter
    (fun (c : Cut.cut) ->
      let m = Array.length c.Cut.leaves in
      if m >= 1 && not (Array.exists (fun l -> l = v) c.Cut.leaves) then
        for minterm = 0 to (1 lsl m) - 1 do
          let leaf_values = Array.init m (fun i -> (minterm lsr i) land 1 = 1) in
          let expected = cone_value aig v c.Cut.leaves leaf_values in
          let got =
            Int64.logand (Int64.shift_right_logical c.Cut.tt minterm) 1L = 1L
          in
          if expected <> got then
            Alcotest.failf "cut function of node %d differs on minterm %d" v minterm
        done)
    (cuts_of v)

let test_enumerate_functions () =
  let rng = Rng.create 401 in
  for _ = 1 to 5 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
    let cuts = Cut.enumerate aig ~k:4 ~max_cuts:8 in
    let order = Aig.topo aig in
    Array.iter
      (fun v -> if Aig.is_and aig v then check_cut_functions aig (fun v -> cuts.(v)) v)
      order
  done

let test_local_functions () =
  let rng = Rng.create 402 in
  for _ = 1 to 5 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
    let order = Aig.topo aig in
    Array.iter
      (fun v ->
        if Aig.is_and aig v then
          check_cut_functions aig
            (fun v -> Cut.local aig v ~k:4 ~max_cuts:8 ~depth:6)
            v)
      order
  done

let test_cut_width_respected () =
  let rng = Rng.create 403 in
  let aig = Helpers.random_xor_aig ~inputs:8 ~gates:50 ~outputs:4 rng in
  List.iter
    (fun k ->
      let cuts = Cut.enumerate aig ~k ~max_cuts:8 in
      Array.iteri
        (fun v cs ->
          if Aig.is_and aig v then
            List.iter
              (fun (c : Cut.cut) ->
                Alcotest.(check bool) "width" true (Array.length c.Cut.leaves <= k))
              cs)
        cuts)
    [ 2; 3; 4; 5; 6 ]

let test_stretch_roundtrip =
  Helpers.qcheck_case "stretch preserves function"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* leaves [2;5], super [1;2;5;9] *)
      let tt = Int64.of_int (Rng.int rng 16) in
      let leaves = [| 2; 5 |] in
      let super = [| 1; 2; 5; 9 |] in
      let stretched = Cut.stretch tt leaves super in
      let ok = ref true in
      for m = 0 to 15 do
        (* super minterm: bit0 = leaf 1, bit1 = leaf 2, bit2 = leaf 5,
           bit3 = leaf 9 *)
        let a = ((m lsr 1) land 1) lor (((m lsr 2) land 1) lsl 1) in
        let expected = Int64.logand (Int64.shift_right_logical tt a) 1L in
        let got = Int64.logand (Int64.shift_right_logical stretched m) 1L in
        if expected <> got then ok := false
      done;
      !ok)

(* --- the list-based enumeration, kept as the oracle --- *)

(* The enumeration as it was first written: a per-minterm [stretch],
   list merges, [List.sort_uniq] and a list dominance filter. [Cut]
   must return exactly its lists: the same cuts with the same
   functions, in the same order. *)
module Oracle = struct
  type cut = Cut.cut = { leaves : int array; tt : int64 }

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
      let rec go i =
        if i = n1 then 0
        else
          let a = Array.unsafe_get l1 i and b = Array.unsafe_get l2 i in
          if a <> b then Stdlib.compare (a : int) b else go (i + 1)
      in
      go 0
    end

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
              let tt = Int64.logand (Int64.logand t0 t1) (Cut.tt_mask m) in
              results := { leaves; tt } :: !results)
          cuts1)
      cuts0;
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | c :: rest -> c :: take (n - 1) rest
    in
    take max_cuts (filter_dominated (List.sort_uniq cut_compare !results))

  let trivial v = { leaves = [| v |]; tt = 2L }
  let const_cut = { leaves = [||]; tt = 0L }

  let enumerate aig ~k ~max_cuts =
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
end

(* Random AIGs with reconvergence, then the same AIGs after a rewrite
   (which leaves dead nodes and non-topological ids behind). *)
let gen_cut_params =
  QCheck2.Gen.(
    quad (int_bound 1_000_000) (int_range 2 6) (int_range 0 8) (int_range 1 12))

let before_and_after_rewrite seed f =
  let rng = Rng.create seed in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:35 ~outputs:4 rng in
  let before = f aig in
  ignore (Sbm_aig.Rewrite.run aig);
  before && f aig

let test_local_matches_oracle =
  Helpers.qcheck_case ~count:60 "local cuts equal the list oracle" gen_cut_params
    (fun (seed, k, depth, max_cuts) ->
      before_and_after_rewrite seed (fun aig ->
          Array.for_all
            (fun v ->
              (not (Aig.is_and aig v))
              || Cut.local aig v ~k ~max_cuts ~depth
                 = Oracle.local aig v ~k ~max_cuts ~depth)
            (Aig.topo aig)))

let test_enumerate_matches_oracle =
  Helpers.qcheck_case ~count:60 "global cuts equal the list oracle" gen_cut_params
    (fun (seed, k, _, max_cuts) ->
      before_and_after_rewrite seed (fun aig ->
          Cut.enumerate aig ~k ~max_cuts = Oracle.enumerate aig ~k ~max_cuts))

(* Every sorted subset of every leaf list of up to 6 leaves, on a
   random 64-bit table (bits above the subset's width included). *)
let test_stretch_matches_oracle =
  Helpers.qcheck_case ~count:100 "stretch equals the per-minterm oracle"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let tt = Rng.next64 rng in
      List.for_all
        (fun m' ->
          let super = Array.init m' (fun i -> (3 * i) + 1 + Rng.int rng 3) in
          List.for_all
            (fun subset ->
              let leaves =
                Array.of_list
                  (List.filteri (fun i _ -> (subset lsr i) land 1 = 1) (Array.to_list super))
              in
              Cut.stretch tt leaves super = Oracle.stretch tt leaves super)
            (List.init (1 lsl m') Fun.id))
        [ 0; 1; 2; 3; 4; 5; 6 ])

(* A deep reconvergent AIG: half the fanins come from the six newest
   nodes. On these two seeds some node has two fanin-cut pairs with the
   same leaves and different functions (a leaf free in one, expanded in
   the other), and the copy [List.sort_uniq] keeps is not the one
   generated last. *)
let test_equal_leaves_keep_the_oracle_copy () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let aig = Aig.create () in
      let pool = ref (Array.init (3 + (seed mod 5)) (fun _ -> Aig.add_input aig)) in
      let pick () =
        let arr = !pool in
        let n = Array.length arr in
        let i = if Rng.bool rng then n - 1 - Rng.int rng (min n 6) else Rng.int rng n in
        if Rng.bool rng then Aig.lnot arr.(i) else arr.(i)
      in
      for _ = 1 to 40 do
        let l = Aig.band aig (pick ()) (pick ()) in
        if Aig.node_of l <> 0 then pool := Array.append !pool [| Aig.lpos l |]
      done;
      ignore (Aig.add_output aig !pool.(Array.length !pool - 1));
      Array.iter
        (fun v ->
          if Aig.is_and aig v then
            List.iter
              (fun k ->
                if Cut.local aig v ~k ~max_cuts:12 ~depth:8
                   <> Oracle.local aig v ~k ~max_cuts:12 ~depth:8
                then Alcotest.failf "seed %d: node %d differs from the oracle at k = %d" seed v k)
              [ 4; 5; 6 ])
        (Aig.topo aig))
    [ 3542; 31184 ]

(* --- Synth --- *)

let gen_tt =
  QCheck2.Gen.(
    pair (int_range 1 8) (int_bound 1_000_000)
    |> map (fun (n, seed) -> Tt.random n (Rng.create seed)))

let test_synth_exact =
  Helpers.qcheck_case ~count:100 "synth builds the exact function" gen_tt (fun tt ->
      let n = Tt.num_vars tt in
      let aig = Aig.create () in
      let leaves = Array.init n (fun _ -> Aig.add_input aig) in
      let root = Sbm_aig.Synth.of_tt aig tt leaves in
      ignore (Aig.add_output aig root);
      let ok = ref true in
      for m = 0 to (1 lsl n) - 1 do
        let bits = Array.init n (fun i -> (m lsr i) land 1 = 1) in
        if (Sbm_aig.Sim.eval aig bits).(0) <> Tt.get_bit tt m then ok := false
      done;
      !ok)

let test_synth_cost_bound =
  Helpers.qcheck_case "cost bounds real construction" gen_tt (fun tt ->
      let n = Tt.num_vars tt in
      let aig = Aig.create () in
      let leaves = Array.init n (fun _ -> Aig.add_input aig) in
      let cp = Aig.mark_created aig in
      let root = Sbm_aig.Synth.of_tt aig tt leaves in
      ignore (Aig.add_output aig root);
      Aig.fresh_since aig cp <= Sbm_aig.Synth.cost_of_tt tt)

(* --- the full-width search, kept as the oracle --- *)

(* The decomposition search as it was first written: every cofactor
   keeps the table's full width, and the choices name variables of
   that width. [Synth] must build the same literal into the same AIG
   and report the same cost. *)
module Synth_oracle = struct
  type choice =
    | Const of bool
    | Literal of int * bool
    | Shannon of int
    | Xor of int
    | And_pos of int
    | And_neg of int
    | Or_pos of int
    | Or_neg of int

  let mux_cost = 3
  let xor_cost = Sbm_aig.Synth.xor_cost

  let rec search memo tt =
    match Tt.Tbl.find_opt memo tt with
    | Some r -> r
    | None ->
      let r =
        if Tt.is_const0 tt then (0, Const false)
        else if Tt.is_const1 tt then (0, Const true)
        else begin
          match Tt.support tt with
          | [ v ] ->
            if Tt.equal tt (Tt.var (Tt.num_vars tt) v) then (0, Literal (v, false))
            else (0, Literal (v, true))
          | vars ->
            let best = ref (max_int, Const false) in
            let consider cost choice = if cost < fst !best then best := (cost, choice) in
            let generic = ref [] in
            List.iter
              (fun v ->
                let f0 = Tt.cofactor0 tt v in
                let f1 = Tt.cofactor1 tt v in
                if Tt.equal f0 (Tt.bnot f1) then
                  consider (fst (search memo f0) + xor_cost) (Xor v)
                else if Tt.is_const0 f0 then consider (fst (search memo f1) + 1) (And_pos v)
                else if Tt.is_const0 f1 then consider (fst (search memo f0) + 1) (And_neg v)
                else if Tt.is_const1 f0 then consider (fst (search memo f1) + 1) (Or_neg v)
                else if Tt.is_const1 f1 then consider (fst (search memo f0) + 1) (Or_pos v)
                else
                  generic := (Tt.count_ones (Tt.bxnor f0 f1), v, f0, f1) :: !generic)
              vars;
            let ranked =
              List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a) !generic
            in
            let take2 = match ranked with a :: b :: _ -> [ a; b ] | l -> l in
            List.iter
              (fun (_, v, f0, f1) ->
                let c0, _ = search memo f0 in
                let c1, _ = search memo f1 in
                consider (c0 + c1 + mux_cost) (Shannon v))
              take2;
            !best
        end
      in
      Tt.Tbl.add memo tt r;
      r

  let rec build memo aig leaves tt =
    let _, choice = search memo tt in
    let sub cofactor v = build memo aig leaves (cofactor tt v) in
    match choice with
    | Const false -> Aig.const0
    | Const true -> Aig.const1
    | Literal (v, c) -> if c then Aig.lnot leaves.(v) else leaves.(v)
    | Shannon v ->
      let hi = sub Tt.cofactor1 v in
      let lo = sub Tt.cofactor0 v in
      Aig.bmux aig leaves.(v) hi lo
    | Xor v -> Aig.bxor aig leaves.(v) (sub Tt.cofactor0 v)
    | And_pos v -> Aig.band aig leaves.(v) (sub Tt.cofactor1 v)
    | And_neg v -> Aig.band aig (Aig.lnot leaves.(v)) (sub Tt.cofactor0 v)
    | Or_pos v -> Aig.bor aig leaves.(v) (sub Tt.cofactor0 v)
    | Or_neg v -> Aig.bor aig (Aig.lnot leaves.(v)) (sub Tt.cofactor1 v)

  let of_tt aig tt leaves = build (Tt.Tbl.create 64) aig leaves tt
  let cost_of_tt tt = fst (search (Tt.Tbl.create 64) tt)
end

(* Tables of 1–12 variables that ignore some of them and are wrapped in
   AND/OR/XOR with literals, so that every degenerate split fires. *)
let gen_structured_tt =
  QCheck2.Gen.(
    pair (int_range 1 12) (int_bound 1_000_000)
    |> map (fun (n, seed) ->
           let rng = Rng.create seed in
           let ignore_some t =
             List.fold_left
               (fun t v -> if Rng.int rng 3 = 0 then Tt.cofactor0 t v else t)
               t (List.init n Fun.id)
           in
           let rec wrap t d =
             if d = 0 then t
             else begin
               let x = Tt.var n (Rng.int rng n) in
               let x = if Rng.bool rng then Tt.bnot x else x in
               let t =
                 match Rng.int rng 3 with
                 | 0 -> Tt.band x t
                 | 1 -> Tt.bor x t
                 | _ -> Tt.bxor x t
               in
               wrap t (d - 1)
             end
           in
           wrap (ignore_some (Tt.random n rng)) (Rng.int rng 5)))

let build_with of_tt tt =
  let n = Tt.num_vars tt in
  let aig = Aig.create () in
  let leaves = Array.init n (fun _ -> Aig.add_input aig) in
  let root = of_tt aig tt leaves in
  ignore (Aig.add_output aig root);
  (root, Aig.fold_hash aig)

let test_synth_matches_oracle =
  Helpers.qcheck_case ~count:150 "synth builds the oracle's network" gen_structured_tt
    (fun tt ->
      build_with Sbm_aig.Synth.of_tt tt = build_with Synth_oracle.of_tt tt)

let test_synth_cost_matches_oracle =
  Helpers.qcheck_case ~count:150 "synth cost equals the oracle's" gen_structured_tt
    (fun tt -> Sbm_aig.Synth.cost_of_tt tt = Synth_oracle.cost_of_tt tt)

(* [Synth] answers every table on 0–4 variables from its start-up
   table. Each such table's cost equals the oracle's. Building all
   65 536 four-variable networks twice takes seconds, so the networks
   are checked for every table on 0–3 variables and for a fixed sample
   of 4 096 four-variable ones. *)
let tables_on n =
  Seq.map (fun w -> Tt.of_word n (Int64.of_int w)) (Seq.init (1 lsl (1 lsl n)) Fun.id)

let test_synth_cost_exhaustive () =
  Seq.iter
    (fun tt ->
      let got = Sbm_aig.Synth.cost_of_tt tt and want = Synth_oracle.cost_of_tt tt in
      if got <> want then
        Alcotest.failf "cost of %d-variable %s: %d, oracle %d" (Tt.num_vars tt)
          (Tt.to_string tt) got want)
    (Seq.concat_map tables_on (Seq.init 5 Fun.id))

let test_synth_build_small_tables () =
  let rng = Rng.create 0x5EED in
  let sample = Seq.init 4096 (fun _ -> Tt.of_word 4 (Int64.of_int (Rng.int rng 65536))) in
  Seq.iter
    (fun tt ->
      if build_with Sbm_aig.Synth.of_tt tt <> build_with Synth_oracle.of_tt tt then
        Alcotest.failf "network of %d-variable %s differs from the oracle's"
          (Tt.num_vars tt) (Tt.to_string tt))
    (Seq.append (Seq.concat_map tables_on (Seq.init 4 Fun.id)) sample)

let test_synth_trivial () =
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let leaves = [| a; b |] in
  Alcotest.(check int) "const0" Aig.const0 (Sbm_aig.Synth.of_tt aig (Tt.const0 2) leaves);
  Alcotest.(check int) "const1" Aig.const1 (Sbm_aig.Synth.of_tt aig (Tt.const1 2) leaves);
  Alcotest.(check int) "projection" a (Sbm_aig.Synth.of_tt aig (Tt.var 2 0) leaves);
  Alcotest.(check int) "negated projection" (Aig.lnot b)
    (Sbm_aig.Synth.of_tt aig (Tt.bnot (Tt.var 2 1)) leaves)

let suite =
  [
    Alcotest.test_case "global cut functions" `Quick test_enumerate_functions;
    Alcotest.test_case "local cut functions" `Quick test_local_functions;
    Alcotest.test_case "cut width respected" `Quick test_cut_width_respected;
    test_stretch_roundtrip;
    test_stretch_matches_oracle;
    test_local_matches_oracle;
    test_enumerate_matches_oracle;
    Alcotest.test_case "equal leaves keep the oracle's copy" `Quick
      test_equal_leaves_keep_the_oracle_copy;
    test_synth_exact;
    test_synth_cost_bound;
    test_synth_matches_oracle;
    test_synth_cost_matches_oracle;
    Alcotest.test_case "synth cost equals the oracle's on every table below 5 inputs" `Quick
      test_synth_cost_exhaustive;
    Alcotest.test_case "synth builds the oracle's network on tables below 5 inputs" `Quick
      test_synth_build_small_tables;
    Alcotest.test_case "synth trivial cases" `Quick test_synth_trivial;
  ]
