module Aig = Sbm_aig.Aig
module Sim = Sbm_aig.Sim
module Rng = Sbm_util.Rng
module M = Sbm_obs.Metrics

(* Conflict budget of one miter; an [Unknown] answer keeps the node. *)
let conflict_limit = 1000

(* Check whether replacing node [v] by literal [cand] preserves every
   output, with one SAT call on a fresh miter. A [Sat] answer carries
   the input assignment under which the bypass flips an output; it is
   handed to [on_cex] (the simulation prefilter's refinement hook). *)
let bypass_safe ?on_cex aig v cand =
  let solver = Solver.create () in
  let vars = Tseitin.encode solver aig in
  (* Encode the modified cones: copy variables for the TFO of [v],
     where [v] itself is read as [cand]. *)
  let n = Aig.num_nodes aig in
  let shadow = Array.make n 0 in
  let in_tfo = Array.make n false in
  let order = Aig.topo aig in
  Array.iter
    (fun w ->
      if w = v then in_tfo.(w) <- true
      else if Aig.is_and aig w then begin
        let p f = in_tfo.(Aig.node_of f) in
        if p (Aig.fanin0 aig w) || p (Aig.fanin1 aig w) then in_tfo.(w) <- true
      end)
    order;
  let shadow_lit l =
    let w = Aig.node_of l in
    let base =
      if w = v then Tseitin.lit_dimacs vars cand
      else if in_tfo.(w) && shadow.(w) > 0 then shadow.(w)
      else Tseitin.lit_dimacs vars (Aig.lit_of w false)
    in
    if Aig.is_compl l then -base else base
  in
  Array.iter
    (fun w ->
      if in_tfo.(w) && w <> v && Aig.is_and aig w then
        shadow.(w) <-
          Tseitin.and_gate solver
            (shadow_lit (Aig.fanin0 aig w))
            (shadow_lit (Aig.fanin1 aig w)))
    order;
  (* Miter: some output differs. *)
  let diffs =
    Array.to_list (Aig.outputs aig)
    |> List.filter_map (fun l ->
           let w = Aig.node_of l in
           if not in_tfo.(w) then None
           else Some (Tseitin.differ solver (Tseitin.lit_dimacs vars l) (shadow_lit l)))
  in
  if diffs = [] then true
  else begin
    ignore (Solver.add_clause solver diffs);
    let result = Solver.solve ~conflict_limit solver in
    M.add Sat_metrics.redundancy_sat_calls 1;
    M.add Sat_metrics.conflicts (Solver.num_conflicts solver);
    M.add Sat_metrics.decisions (Solver.num_decisions solver);
    M.add Sat_metrics.propagations (Solver.num_propagations solver);
    M.add Sat_metrics.restarts (Solver.num_restarts solver);
    match result with
    | Solver.Unsat -> true
    | Solver.Sat ->
      (match on_cex with
      | Some f -> f (Tseitin.model_inputs solver vars aig)
      | None -> ());
      false
    | Solver.Unknown -> false
  end

(* --- simulation filter ---

   The network's node values on [Sim.default_words] seeded 64-pattern
   words, kept with the topological order they were computed in. A
   bypass that changes an output on any of these patterns is unsafe:
   the pattern satisfies the miter, which therefore could not have
   answered [Unsat]. Only the survivors reach [bypass_safe].
   Rejections leave the network untouched, so every SAT query still
   asked sees the network it saw without the filter and returns the
   same verdict. *)
type filter = {
  words : int64 array array; (* per word, one pattern word per input *)
  values : int64 array array; (* per word, node values *)
  order : int array;
  pos : int array; (* node -> index in [order], -1 if absent *)
  shadow : int64 array; (* bypassed values of the changed nodes *)
  stamp : int array; (* [epoch] marks a changed node *)
  mutable epoch : int;
}

let simulate words aig =
  let n = Aig.num_nodes aig in
  let order = Aig.topo aig in
  let pos = Array.make n (-1) in
  Array.iteri (fun i w -> pos.(w) <- i) order;
  { words; values = Array.map (Sim.simulate aig) words; order; pos;
    shadow = Array.make n 0L; stamp = Array.make n 0; epoch = 0 }

(* Re-evaluate [v]'s transitive fanout with [v := cand], one word at a
   time, propagating only values that actually change. Returns the
   first input pattern (lowest word, then lowest output index, then
   lowest bit) on which an output differs. *)
let disprove f aig v cand =
  if f.pos.(v) < 0 then None
  else begin
    let shadow = f.shadow and stamp = f.stamp in
    let outs = Aig.outputs aig in
    let rec word k =
      if k = Array.length f.words then None
      else begin
        let values = f.values.(k) in
        f.epoch <- f.epoch + 1;
        let epoch = f.epoch in
        let value l =
          let w = Aig.node_of l in
          let x = if stamp.(w) = epoch then shadow.(w) else values.(w) in
          if Aig.is_compl l then Int64.lognot x else x
        in
        let x = value cand in
        if x <> values.(v) then begin
          shadow.(v) <- x;
          stamp.(v) <- epoch;
          for i = f.pos.(v) + 1 to Array.length f.order - 1 do
            let w = f.order.(i) in
            if Aig.is_and aig w then begin
              let f0 = Aig.fanin0 aig w and f1 = Aig.fanin1 aig w in
              if stamp.(Aig.node_of f0) = epoch || stamp.(Aig.node_of f1) = epoch
              then begin
                let x = Int64.logand (value f0) (value f1) in
                if x <> values.(w) then begin
                  shadow.(w) <- x;
                  stamp.(w) <- epoch
                end
              end
            end
          done
        end;
        let rec output o =
          if o = Array.length outs then word (k + 1)
          else
            let w = Aig.node_of outs.(o) in
            if stamp.(w) = epoch then begin
              let diff = Int64.logxor shadow.(w) values.(w) in
              let bit = ref 0 in
              while Int64.logand (Int64.shift_right_logical diff !bit) 1L = 0L do
                incr bit
              done;
              Some
                (Array.map
                   (fun ws -> Int64.logand (Int64.shift_right_logical ws !bit) 1L = 1L)
                   f.words.(k))
            end
            else output (o + 1)
        in
        output 0
      end
    in
    word 0
  end

let run ?(max_candidates = 200) ?on_cex aig =
  let removed = ref 0 in
  let tried = ref 0 in
  let sim_disproved = ref 0 in
  let words =
    let rng = Rng.create 0x5eed in
    Array.init Sim.default_words (fun _ -> Sim.random_inputs aig rng)
  in
  let filter = ref (simulate words aig) in
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if !tried < max_candidates && Aig.is_and aig v && not (Aig.is_dead aig v) then begin
        (* Candidate bypasses: each fanin in place of the node. *)
        let try_cand cand =
          if
            !tried < max_candidates
            && Aig.node_of cand <> v
            && (not (Aig.is_dead aig (Aig.node_of cand)))
            && not (Aig.in_tfi aig ~node:v ~root:(Aig.node_of cand))
          then begin
            incr tried;
            match disprove !filter aig v cand with
            | Some bits ->
              incr sim_disproved;
              Option.iter (fun f -> f bits) on_cex;
              false
            | None ->
              if bypass_safe ?on_cex aig v cand then begin
                Aig.replace aig v cand;
                incr removed;
                (* [v]'s fanout now reads [cand]: refresh the values. *)
                filter := simulate words aig;
                true
              end
              else false
          end
          else false
        in
        let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
        if not (try_cand f0) then ignore (try_cand f1)
      end)
    order;
  M.add Sat_metrics.redundancy_tried !tried;
  M.add Sat_metrics.redundancy_removed !removed;
  M.add Sat_metrics.redundancy_sim_disproved !sim_disproved;
  !removed
