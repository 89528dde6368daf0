module Aig = Sbm_aig.Aig

let lit_dimacs vars l =
  let v = vars.(Aig.node_of l) in
  if v = 0 then invalid_arg "Tseitin.lit_dimacs: unencoded node";
  if Aig.is_compl l then -v else v

let encode solver aig =
  let vars = Array.make (Aig.num_nodes aig) 0 in
  (* Constant node: a variable forced to 0 keeps literal translation
     uniform. *)
  let cvar = Solver.new_var solver in
  vars.(0) <- cvar;
  ignore (Solver.add_clause solver [ -cvar ]);
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then vars.(v) <- Solver.new_var solver
      else if Aig.is_and aig v then begin
        let x = Solver.new_var solver in
        vars.(v) <- x;
        let a = lit_dimacs vars (Aig.fanin0 aig v) in
        let b = lit_dimacs vars (Aig.fanin1 aig v) in
        (* x <-> a & b *)
        ignore (Solver.add_clause solver [ -x; a ]);
        ignore (Solver.add_clause solver [ -x; b ]);
        ignore (Solver.add_clause solver [ x; -a; -b ])
      end)
    order;
  vars

(* A model read only: extraction never changes the solver's state or
   its caller's decisions. *)
let model_inputs solver vars aig =
  let bits = Array.make (Aig.num_inputs aig) false in
  for v = 0 to Aig.num_nodes aig - 1 do
    if Aig.is_input aig v && vars.(v) > 0 then
      bits.(Aig.input_index aig v) <- Solver.model_value solver vars.(v)
  done;
  bits
