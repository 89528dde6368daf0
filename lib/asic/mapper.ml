module Aig = Sbm_aig.Aig
module Cut = Sbm_aig.Cut

(* Support compression of a single-word cut function: drop leaves the
   function does not depend on. Returns (tt', leaves'). *)
let compress tt (leaves : int array) =
  let m = Array.length leaves in
  let depends = Array.make m false in
  for j = 0 to m - 1 do
    let differs = ref false in
    for i = 0 to (1 lsl m) - 1 do
      if (i lsr j) land 1 = 0 then begin
        let b0 = Int64.logand (Int64.shift_right_logical tt i) 1L in
        let b1 = Int64.logand (Int64.shift_right_logical tt (i lor (1 lsl j))) 1L in
        if b0 <> b1 then differs := true
      end
    done;
    depends.(j) <- !differs
  done;
  let keep = Array.to_list leaves |> List.filteri (fun j _ -> depends.(j)) in
  let kept_pos = List.filteri (fun j _ -> depends.(j)) (List.init m (fun j -> j)) in
  let m' = List.length keep in
  let tt' = ref 0L in
  for i' = 0 to (1 lsl m') - 1 do
    (* expand compressed index to a full index (dropped vars at 0) *)
    let idx = ref 0 in
    List.iteri (fun j' j -> if (i' lsr j') land 1 = 1 then idx := !idx lor (1 lsl j)) kept_pos;
    if Int64.logand (Int64.shift_right_logical tt !idx) 1L = 1L then
      tt' := Int64.logor !tt' (Int64.shift_left 1L i')
  done;
  (!tt', Array.of_list keep)

let tt_mask m = Int64.sub (Int64.shift_left 1L (1 lsl m)) 1L

type choice = {
  cell : Cell.t;
  perm : int array;
  phases : int; (* bit p: cell pin p reads its leaf complemented *)
  leaves : int array;
  polarity : bool; (* true: the cell computes the complement *)
}

let inv_area = Cell.inverter.Cell.area

let map aig =
  let table = Cell.match_table () in
  let cuts = Cut.enumerate aig ~k:4 ~max_cuts:8 in
  let n = Aig.num_nodes aig in
  (* Two-phase DP: cost of producing the node's function (pos) or its
     complement (neg). *)
  let cost_pos = Array.make n infinity in
  let cost_neg = Array.make n infinity in
  let best : choice option array = Array.make n None in
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then begin
        cost_pos.(v) <- 0.0;
        cost_neg.(v) <- inv_area
      end
      else if Aig.is_and aig v then begin
        let best_cost = ref infinity in
        let best_choice = ref None in
        List.iter
          (fun (c : Cut.cut) ->
            if Array.length c.Cut.leaves >= 1 && not (Array.exists (fun l -> l = v) c.Cut.leaves)
            then begin
              let tt, leaves = compress c.Cut.tt c.Cut.leaves in
              let m = Array.length leaves in
              if m >= 1 && m <= 4 then begin
                let try_polarity tt polarity =
                  match Hashtbl.find_opt table (m, tt) with
                  | None -> ()
                  | Some (cell, perm, phases) ->
                    let leaf_cost = ref 0.0 in
                    for p = 0 to cell.Cell.arity - 1 do
                      let leaf = leaves.(perm.(p)) in
                      leaf_cost :=
                        !leaf_cost
                        +. (if (phases lsr p) land 1 = 1 then cost_neg.(leaf)
                           else cost_pos.(leaf))
                    done;
                    let total = cell.Cell.area +. !leaf_cost in
                    if total < !best_cost then begin
                      best_cost := total;
                      best_choice := Some { cell; perm; phases; leaves; polarity }
                    end
                in
                try_polarity tt false;
                try_polarity (Int64.logand (Int64.lognot tt) (tt_mask m)) true
              end
            end)
          cuts.(v);
        match !best_choice with
        | None -> failwith "Mapper.map: unmatched node"
        | Some ch ->
          best.(v) <- Some ch;
          if ch.polarity then begin
            cost_neg.(v) <- !best_cost;
            cost_pos.(v) <- !best_cost +. inv_area
          end
          else begin
            cost_pos.(v) <- !best_cost;
            cost_neg.(v) <- !best_cost +. inv_area
          end
      end)
    order;
  (* Derivation: materialize nets. *)
  let gates = ref [] in
  let num_nets = ref (Aig.num_inputs aig) in
  let fresh_net () =
    let id = !num_nets in
    incr num_nets;
    id
  in
  let memo : (int * bool, int) Hashtbl.t = Hashtbl.create 256 in
  let emit cell fanins =
    let out = fresh_net () in
    gates := { Netlist.cell; fanins; out } :: !gates;
    out
  in
  let const_net = ref None in
  let rec net_of v phase =
    match Hashtbl.find_opt memo (v, phase) with
    | Some net -> net
    | None ->
      let net =
        if Aig.is_input aig v then begin
          let base = Aig.input_index aig v in
          if phase then emit Cell.inverter [| base |] else base
        end
        else begin
          match best.(v) with
          | None -> failwith "Mapper: deriving unmapped node"
          | Some ch ->
            if ch.polarity = phase then begin
              (* Cell pin p reads leaf perm.(p) in the recorded
                 phase. *)
              let fanins =
                Array.init ch.cell.Cell.arity (fun p ->
                    net_of ch.leaves.(ch.perm.(p)) ((ch.phases lsr p) land 1 = 1))
              in
              emit ch.cell fanins
            end
            else begin
              let other = net_of v ch.polarity in
              emit Cell.inverter [| other |]
            end
        end
      in
      Hashtbl.replace memo (v, phase) net;
      net
  in
  let constant_net phase =
    (* Constant 0 from input 0: NOR2(a, INV a) = ~(a | ~a) = 0. A
       network without inputs takes a tie cell instead. *)
    let base =
      match !const_net with
      | Some net -> net
      | None ->
        let z =
          if Aig.num_inputs aig = 0 then emit Cell.tie_low [||]
          else begin
            let inv = emit Cell.inverter [| 0 |] in
            let nor2 = List.find (fun c -> c.Cell.name = "NOR2") Cell.library in
            emit nor2 [| 0; inv |]
          end
        in
        const_net := Some z;
        z
    in
    if phase then begin
      match Hashtbl.find_opt memo (-1, true) with
      | Some net -> net
      | None ->
        let net = emit Cell.inverter [| base |] in
        Hashtbl.replace memo (-1, true) net;
        net
    end
    else base
  in
  let outputs =
    Array.map
      (fun l ->
        let v = Aig.node_of l in
        if v = 0 then constant_net (Aig.is_compl l)
        else net_of v (Aig.is_compl l))
      (Aig.outputs aig)
  in
  {
    Netlist.num_inputs = Aig.num_inputs aig;
    num_nets = !num_nets;
    gates = Array.of_list (List.rev !gates);
    outputs;
  }
