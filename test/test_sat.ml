(* SAT solver: brute-force cross-check on random CNFs, assumptions,
   conflict budget; sweeping and redundancy removal gates. *)

module Solver = Sbm_sat.Solver
module Rng = Sbm_util.Rng
module Aig = Sbm_aig.Aig

let random_cnf rng nvars nclauses max_len =
  List.init nclauses (fun _ ->
      let len = 1 + Rng.int rng max_len in
      List.init len (fun _ ->
          let v = 1 + Rng.int rng nvars in
          if Rng.bool rng then v else -v))

let brute_force nvars clauses =
  let rec try_assign m =
    if m >= 1 lsl nvars then None
    else begin
      let sat =
        List.for_all
          (List.exists (fun l ->
               let v = abs l in
               let value = (m lsr (v - 1)) land 1 = 1 in
               if l > 0 then value else not value))
          clauses
      in
      if sat then Some m else try_assign (m + 1)
    end
  in
  try_assign 0

let test_random_cnfs =
  Helpers.qcheck_case ~count:200 "solver agrees with brute force"
    QCheck2.Gen.(
      triple (int_range 1 8) (int_range 1 20) (int_bound 1_000_000))
    (fun (nvars, nclauses, seed) ->
      let rng = Rng.create seed in
      let clauses = random_cnf rng nvars nclauses 4 in
      let solver = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var solver)
      done;
      let ok = List.for_all (fun c -> Solver.add_clause solver c) clauses in
      let result = if ok then Solver.solve solver else Solver.Unsat in
      match (result, brute_force nvars clauses) with
      | Solver.Sat, Some _ ->
        (* Verify the reported model. *)
        List.for_all
          (List.exists (fun l ->
               let value = Solver.model_value solver (abs l) in
               if l > 0 then value else not value))
          clauses
      | Solver.Unsat, None -> true
      | Solver.Sat, None | Solver.Unsat, Some _ -> false
      | Solver.Unknown, _ -> false)

let test_assumptions () =
  let solver = Solver.create () in
  let a = Solver.new_var solver in
  let b = Solver.new_var solver in
  ignore (Solver.add_clause solver [ a; b ]);
  ignore (Solver.add_clause solver [ -a; b ]);
  Alcotest.(check bool) "sat under b" true (Solver.solve ~assumptions:[ b ] solver = Solver.Sat);
  Alcotest.(check bool) "unsat under -b,-a" true
    (Solver.solve ~assumptions:[ -b; -a ] solver = Solver.Unsat);
  (* Assumptions do not poison later solves. *)
  Alcotest.(check bool) "sat again" true (Solver.solve solver = Solver.Sat)

let test_unsat_pigeonhole () =
  (* 3 pigeons, 2 holes. *)
  let solver = Solver.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Solver.new_var solver)) in
  for p = 0 to 2 do
    ignore (Solver.add_clause solver [ v.(p).(0); v.(p).(1) ])
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        ignore (Solver.add_clause solver [ -v.(p1).(h); -v.(p2).(h) ])
      done
    done
  done;
  Alcotest.(check bool) "pigeonhole unsat" true (Solver.solve solver = Solver.Unsat)

let test_conflict_budget () =
  (* A hard instance with a 1-conflict budget returns Unknown. *)
  let solver = Solver.create () in
  let v = Array.init 5 (fun _ -> Array.init 4 (fun _ -> Solver.new_var solver)) in
  for p = 0 to 4 do
    ignore (Solver.add_clause solver (Array.to_list v.(p)))
  done;
  for h = 0 to 3 do
    for p1 = 0 to 4 do
      for p2 = p1 + 1 to 4 do
        ignore (Solver.add_clause solver [ -v.(p1).(h); -v.(p2).(h) ])
      done
    done
  done;
  match Solver.solve ~conflict_limit:1 solver with
  | Solver.Unknown -> ()
  | Solver.Sat -> Alcotest.fail "pigeonhole cannot be sat"
  | Solver.Unsat -> () (* solved fast — acceptable *)

let test_tseitin () =
  let rng = Rng.create 88 in
  for _ = 1 to 10 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
    let solver = Solver.create () in
    let vars = Sbm_sat.Tseitin.encode solver aig in
    (* For a random input assignment, assume the inputs and check the
       model matches simulation. *)
    let bits = Array.init (Aig.num_inputs aig) (fun _ -> Rng.bool rng) in
    let assumptions =
      List.init (Aig.num_inputs aig) (fun i ->
          let v = vars.(Aig.node_of (Aig.input_lit aig i)) in
          if bits.(i) then v else -v)
    in
    (match Solver.solve ~assumptions solver with
    | Solver.Sat ->
      let expected = Sbm_aig.Sim.eval aig bits in
      Array.iteri
        (fun i l ->
          let d = Sbm_sat.Tseitin.lit_dimacs vars l in
          let value = Solver.model_value solver (abs d) in
          let value = if d < 0 then not value else value in
          if value <> expected.(i) then Alcotest.failf "output %d mismatch" i)
        (Aig.outputs aig)
    | Solver.Unsat | Solver.Unknown -> Alcotest.fail "assumed inputs must be sat")
  done

let test_sweep () =
  let rng = Rng.create 89 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:4 rng in
    let original = Aig.copy aig in
    let swept, merged = Sbm_sat.Sweep.run aig in
    Aig.check swept;
    Helpers.assert_equiv_exhaustive ~msg:"sweep equivalence" original swept;
    Alcotest.(check bool) "merge count sane" true (merged >= 0);
    Alcotest.(check bool) "not larger" true (Aig.size swept <= Aig.size original)
  done

let test_sweep_merges_duplicates () =
  (* Functionally equal but structurally different cones must merge:
     f = a&(b&c), g = (a&b)&c. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let c = Aig.add_input aig in
  ignore (Aig.add_output aig (Aig.band aig a (Aig.band aig b c)));
  ignore (Aig.add_output aig (Aig.band aig (Aig.band aig a b) c));
  let swept, merged = Sbm_sat.Sweep.run aig in
  Alcotest.(check bool) "merged at least one" true (merged >= 1);
  Alcotest.(check int) "two ANDs remain" 2 (Aig.size swept);
  Alcotest.(check int) "outputs identical" (Aig.output_lit swept 0) (Aig.output_lit swept 1)

let test_redundancy_removal () =
  (* y = a & (a | b): the (a|b) input is redundant; y == a. *)
  let aig = Aig.create () in
  let a = Aig.add_input aig in
  let b = Aig.add_input aig in
  let y = Aig.band aig a (Aig.bor aig a b) in
  ignore (Aig.add_output aig y);
  let original = Aig.copy aig in
  let removed = Sbm_sat.Redundancy.run aig in
  Aig.check aig;
  Helpers.assert_equiv_exhaustive ~msg:"redundancy equivalence" original aig;
  Alcotest.(check bool) "found the redundancy" true (removed >= 1);
  Alcotest.(check int) "reduced to wire" 0 (Aig.size aig)

let test_redundancy_random () =
  let rng = Rng.create 90 in
  for _ = 1 to 6 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
    let original = Aig.copy aig in
    ignore (Sbm_sat.Redundancy.run ~max_candidates:40 aig);
    Aig.check aig;
    Helpers.assert_equiv_exhaustive ~msg:"redundancy random gate" original aig
  done

(* Counter deltas of one call, read from the registry. *)
let redundancy_counts f =
  let counters =
    Sbm_sat.Sat_metrics.[ redundancy_tried; redundancy_sim_disproved; redundancy_sat_calls ]
  in
  let before = List.map Sbm_obs.Metrics.value counters in
  let r = f () in
  match List.map2 (fun m b -> Sbm_obs.Metrics.value m - b) counters before with
  | [ tried; disproved; sat_calls ] -> (r, tried, disproved, sat_calls)
  | _ -> assert false

let test_redundancy_planted_cec () =
  (* x & (x | y) under a wider cone: the (x | y) fanin is redundant. *)
  let aig = Aig.create () in
  let x = Aig.add_input aig and y = Aig.add_input aig and z = Aig.add_input aig in
  let planted = Aig.band aig x (Aig.bor aig x y) in
  ignore (Aig.add_output aig (Aig.bxor aig planted z));
  ignore (Aig.add_output aig (Aig.bor aig planted (Aig.band aig y z)));
  let original = Aig.copy aig in
  let removed = Sbm_sat.Redundancy.run aig in
  Aig.check aig;
  Alcotest.(check bool) "planted redundancy removed" true (removed >= 1);
  Alcotest.(check bool) "smaller" true (Aig.size aig < Aig.size original);
  match Sbm_cec.Cec.check original aig with
  | Sbm_cec.Cec.Equivalent -> ()
  | _ -> Alcotest.fail "result not proven equivalent to the input"

(* Every candidate bypass of an XOR tree flips an output on some of the
   filter's patterns, so no SAT call is made, and every pattern handed
   to [on_cex] tells the original from some single-fanin bypass. *)
let test_redundancy_xor_tree_no_sat () =
  let aig = Aig.create () in
  let rec tree = function
    | [ l ] -> l
    | ls ->
      let rec pairs = function
        | a :: b :: rest -> Aig.bxor aig a b :: pairs rest
        | rest -> rest
      in
      tree (pairs ls)
  in
  ignore (Aig.add_output aig (tree (List.init 8 (fun _ -> Aig.add_input aig))));
  let original = Aig.copy aig in
  let patterns = ref [] in
  let removed, tried, disproved, sat_calls =
    redundancy_counts (fun () ->
        Sbm_sat.Redundancy.run ~on_cex:(fun bits -> patterns := bits :: !patterns) aig)
  in
  Alcotest.(check int) "nothing removed" 0 removed;
  Alcotest.(check int) "no SAT call" 0 sat_calls;
  Alcotest.(check bool) "candidates tried" true (tried > 0);
  Alcotest.(check int) "every candidate disproved by simulation" tried disproved;
  Alcotest.(check int) "one pattern per disproved candidate" disproved
    (List.length !patterns);
  let bypasses =
    List.concat_map
      (fun v ->
        if not (Aig.is_and original v) then []
        else
          List.filter_map
            (fun f ->
              if Aig.in_tfi original ~node:v ~root:(Aig.node_of f) then None
              else begin
                let c = Aig.copy original in
                Aig.replace c v f;
                Some c
              end)
            [ Aig.fanin0 original v; Aig.fanin1 original v ])
      (List.init (Aig.num_nodes original) Fun.id)
  in
  List.iter
    (fun bits ->
      let reference = Sbm_aig.Sim.eval original bits in
      Alcotest.(check bool) "pattern distinguishes a bypass" true
        (List.exists (fun c -> Sbm_aig.Sim.eval c bits <> reference) bypasses))
    !patterns

(* Removed count and result digest, recorded before the simulation
   filter existed: the filter only skips SAT queries whose answer could
   not have been Unsat. Raw ctrl and the random AIG accept bypasses;
   the random one also fails if the filter keeps its pre-bypass values
   after an accepted bypass (2 removed instead of 5). *)
let test_redundancy_pinned () =
  let module Epfl = Sbm_epfl.Epfl in
  let cases =
    [
      ("div", (fun () -> Sbm_core.Flow.baseline (Epfl.generate ~scale:0.09375 Epfl.Div)),
       (0, -3353527179304248636L));
      ("ctrl", (fun () -> Sbm_core.Flow.baseline (Epfl.generate Epfl.Ctrl)),
       (0, 5912184018341111655L));
      ("ctrl raw", (fun () -> Epfl.generate Epfl.Ctrl), (11, -2236583940850996534L));
      ("random xor (seed 1)",
       (fun () -> Helpers.random_xor_aig ~inputs:10 ~gates:60 ~outputs:4 (Rng.create 1)),
       (5, 525030432761852426L));
    ]
  in
  List.iter
    (fun (name, input, (expected_removed, expected_hash)) ->
      let aig = input () in
      let removed, tried, disproved, sat_calls =
        redundancy_counts (fun () -> Sbm_sat.Redundancy.run ~max_candidates:50 aig)
      in
      Alcotest.(check int) (name ^ ": removed") expected_removed removed;
      Alcotest.(check int64) (name ^ ": fold_hash") expected_hash (Aig.fold_hash aig);
      Alcotest.(check bool)
        (name ^ ": sim_disproved + sat_calls <= tried")
        true
        (disproved + sat_calls <= tried))
    cases

let suite =
  [
    test_random_cnfs;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "pigeonhole unsat" `Quick test_unsat_pigeonhole;
    Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
    Alcotest.test_case "tseitin encoding" `Quick test_tseitin;
    Alcotest.test_case "sat sweeping gate" `Quick test_sweep;
    Alcotest.test_case "sweep merges duplicates" `Quick test_sweep_merges_duplicates;
    Alcotest.test_case "redundancy removal" `Quick test_redundancy_removal;
    Alcotest.test_case "redundancy random gate" `Quick test_redundancy_random;
    Alcotest.test_case "redundancy: planted redundancy removed, CEC-proven" `Quick
      test_redundancy_planted_cec;
    Alcotest.test_case "redundancy: xor tree needs no SAT call" `Quick
      test_redundancy_xor_tree_no_sat;
    Alcotest.test_case "redundancy: pinned results" `Quick
      test_redundancy_pinned;
  ]
