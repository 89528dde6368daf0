module Aig = Sbm_aig.Aig
module Sim = Sbm_aig.Sim
module Solver = Sbm_sat.Solver
module Tseitin = Sbm_sat.Tseitin
module Rng = Sbm_util.Rng

type result = Equivalent | Counterexample of bool array | Unknown

let counterexample_of_words a words bit =
  Array.init (Aig.num_inputs a) (fun i ->
      Int64.logand (Int64.shift_right_logical words.(i) bit) 1L = 1L)

let simulate_differ a b rng =
  let words = Sim.random_inputs a rng in
  let va = Sim.simulate a words in
  let vb = Sim.simulate b words in
  let oa = Sim.output_values a va in
  let ob = Sim.output_values b vb in
  let diff = ref None in
  Array.iteri
    (fun i wa ->
      if !diff = None && wa <> ob.(i) then begin
        let x = Int64.logxor wa ob.(i) in
        (* Index of the lowest set bit. *)
        let rec low j = if Int64.logand (Int64.shift_right_logical x j) 1L = 1L then j else low (j + 1) in
        diff := Some (counterexample_of_words a words (low 0))
      end)
    oa;
  !diff

let check ?(sim_rounds = 16) ?(conflict_limit = 100_000) a b =
  if Aig.num_inputs a <> Aig.num_inputs b || Aig.num_outputs a <> Aig.num_outputs b
  then invalid_arg "Cec.check: I/O signature mismatch";
  let rng = Rng.create 0xcec in
  let rec sim r =
    if r = 0 then None
    else
      match simulate_differ a b rng with
      | Some cex -> Some cex
      | None -> sim (r - 1)
  in
  match sim sim_rounds with
  | Some cex -> Counterexample cex
  | None ->
    (* SAT miter: shared inputs, OR of output XORs asserted true. *)
    let solver = Solver.create () in
    let va = Tseitin.encode solver a in
    let vb = Tseitin.encode solver b in
    (* Tie the inputs together. *)
    for i = 0 to Aig.num_inputs a - 1 do
      let xa = Tseitin.lit_dimacs va (Aig.input_lit a i) in
      let xb = Tseitin.lit_dimacs vb (Aig.input_lit b i) in
      ignore (Solver.add_clause solver [ -xa; xb ]);
      ignore (Solver.add_clause solver [ xa; -xb ])
    done;
    let diffs =
      List.init (Aig.num_outputs a) (fun i ->
          let oa = Tseitin.lit_dimacs va (Aig.output_lit a i) in
          let ob = Tseitin.lit_dimacs vb (Aig.output_lit b i) in
          Tseitin.differ solver oa ob)
    in
    ignore (Solver.add_clause solver diffs);
    (match Solver.solve ~conflict_limit solver with
    | Solver.Unsat -> Equivalent
    | Solver.Unknown -> Unknown
    | Solver.Sat ->
      let cex =
        Array.init (Aig.num_inputs a) (fun i ->
            Solver.model_value solver (Tseitin.lit_dimacs va (Aig.input_lit a i)))
      in
      Counterexample cex)

let equiv a b = check a b = Equivalent
