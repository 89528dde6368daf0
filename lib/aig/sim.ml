let default_words = 4

let lit_value values l =
  let v = values.(Aig.node_of l) in
  if Aig.is_compl l then Int64.lognot v else v

let simulate aig words =
  if Array.length words <> Aig.num_inputs aig then invalid_arg "Sim.simulate";
  let values = Array.make (Aig.num_nodes aig) 0L in
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then values.(v) <- words.(Aig.input_index aig v)
      else if Aig.is_and aig v then
        values.(v) <-
          Int64.logand
            (lit_value values (Aig.fanin0 aig v))
            (lit_value values (Aig.fanin1 aig v)))
    order;
  values

let output_values aig values =
  Array.map (fun l -> lit_value values l) (Aig.outputs aig)

let random_inputs aig rng =
  Array.init (Aig.num_inputs aig) (fun _ -> Sbm_util.Rng.next64 rng)

let eval aig bits =
  if Array.length bits <> Aig.num_inputs aig then invalid_arg "Sim.eval";
  let words = Array.map (fun b -> if b then -1L else 0L) bits in
  let values = simulate aig words in
  Array.map (fun l -> Int64.logand (lit_value values l) 1L = 1L) (Aig.outputs aig)
