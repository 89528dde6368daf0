module Tt = Sbm_truthtable.Tt

(* Node-indexed scratch of one [run], grown with the AIG. At the
   current root, [mark] places a node: [base] a window leaf, [base + 1]
   another node whose table the window memo holds, [base + 2] a side
   node without a table yet, [base + 3] one with; below [base] it is
   outside the window. [base] moves by four per root, so no mark is
   ever cleared. [tables.(v)] is [v]'s table when [v] is marked
   [base], [base + 1] or [base + 3]. *)
type scratch = {
  mutable mark : int array;
  mutable tables : Tt.t array;
  mutable base : int;
}

(* Holds a side node's slot in the window memo: only a kept divisor,
   and the side nodes below it, get a table. *)
let unevaluated = Tt.const0 0

(* Collect divisor nodes for a window: nodes in the cone below [root]
   (excluding [root] itself) plus fanouts of cone nodes whose support
   stays within the leaf set. All truth tables are over the leaves.

   The divisors, and which side nodes the fuel budget reaches, follow
   the window memo's [Hashtbl] order, so every side node joins the
   memo in the order of the old table-building walk: fanin0 before
   fanin1, a node after both its fanins, one unit of fuel per AND
   entered and not yet in the window. Membership is read from the
   marks, and tables are built only for the divisors kept. *)
let collect_divisors s (w : Local.window) root ~max_divisors =
  let aig = w.aig in
  let num = Aig.num_nodes aig in
  if Array.length s.mark < num then begin
    s.mark <- Array.make (2 * num) 0;
    s.tables <- Array.make (2 * num) unevaluated
  end;
  s.base <- s.base + 4;
  let mark = s.mark and tables = s.tables and leaf = s.base in
  let inner = leaf + 1 and side = leaf + 2 and built = leaf + 3 in
  Hashtbl.iter
    (fun v tt ->
      mark.(v) <- inner;
      tables.(v) <- tt)
    w.tts;
  Array.iter (fun v -> mark.(v) <- leaf) w.leaves;
  (* Side fanouts are explored under a fuel budget to avoid runaway
     exploration. *)
  let fuel = ref (64 * max_divisors) in
  let rec enter v =
    mark.(v) >= leaf
    || Aig.is_and aig v && !fuel > 0
       && begin
         decr fuel;
         enter (Aig.node_of (Aig.fanin0 aig v))
         && enter (Aig.node_of (Aig.fanin1 aig v))
         && begin
           mark.(v) <- side;
           Hashtbl.add w.tts v unevaluated;
           true
         end
       end
  in
  (* Collection does not edit the AIG, so one mark of the root's
     transitive fanout answers every exclusion test. *)
  let in_tfo = Aig.tfo_mark aig root in
  let consider v =
    if v <> root && mark.(v) < leaf && Aig.is_and aig v && not (in_tfo v) then
      ignore (enter v)
  in
  (* Seed: everything already evaluated is in the window; explore the
     fanouts of leaves and cone nodes once. *)
  let seeds = Hashtbl.fold (fun v _ acc -> v :: acc) w.tts [] in
  List.iter (fun v -> Aig.iter_fanout_nodes aig v consider) seeds;
  let picked = ref [] in
  let count = ref 0 in
  Hashtbl.iter
    (fun v _ ->
      if !count < max_divisors && v <> root && v <> 0 && mark.(v) <> leaf
         && not (in_tfo v)
      then begin
        incr count;
        picked := v :: !picked
      end)
    w.tts;
  let rec table v =
    if mark.(v) = side then begin
      let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
      tables.(v) <-
        Tt.and_phase ~na:(Aig.is_compl f0) (table (Aig.node_of f0))
          ~nb:(Aig.is_compl f1) (table (Aig.node_of f1));
      mark.(v) <- built
    end;
    tables.(v)
  in
  (* Leaves are divisors too (0-cost). *)
  Array.fold_left
    (fun acc v -> (v, tables.(v)) :: acc)
    (List.map (fun v -> (v, table v)) !picked)
    w.leaves

(* 1-resub: the first pair of divisors (in list order; per pair the
   input phases ++, +-, -+, --; per phase AND before its complement
   before XOR) that gives [root_tt] through one gate. Only that winner
   is built.

   Each divisor is profiled against the root once, so most pairs and
   phases are ruled out without a word pass over both tables. An AND
   (NAND) needs both phased operands to contain the root's onset
   (offset), {!Tt.and_operand}. An XOR needs the second divisor to
   equal the first XOR the root, up to complement, so their hashes up
   to complement ([self], [partner], {!Tt.xor_hash}) must agree. A skipped
   probe is one {!Tt.gate_match} would have answered [No_gate], so the
   winner is the same. *)
let one_resub aig root_tt divisors =
  let arr = Array.of_list divisors in
  let num = Array.length arr in
  let fits = Array.map (fun (_, t) -> Tt.and_operand t root_tt) arr in
  let zero = Tt.const0 (Tt.num_vars root_tt) in
  let self = Array.map (fun (_, t) -> Tt.xor_hash t zero) arr in
  let partner = Array.map (fun (_, t) -> Tt.xor_hash t root_tt) arr in
  let rec search i j phase =
    if i >= num then None
    else if j >= num then search (i + 1) (i + 2) 0
    else if phase = 4 then search i (j + 1) 0
    else begin
      let pa = phase lsr 1 and pb = phase land 1 in
      let fi = fits.(i) and fj = fits.(j) in
      let and_ = (fi lsr pa) land (fj lsr pb) land 1 = 1 in
      let nand = (fi lsr (2 + pa)) land (fj lsr (2 + pb)) land 1 = 1 in
      if not (and_ || nand || partner.(i) = self.(j)) then search i j (phase + 1)
      else begin
        let vi, ti = arr.(i) and vj, tj = arr.(j) in
        let na = pa = 1 and nb = pb = 1 in
        let li = Aig.lit_of vi na and lj = Aig.lit_of vj nb in
        match Tt.gate_match ~na ti ~nb tj root_tt with
        | And -> Some (Aig.band aig li lj)
        | Nand -> Some (Aig.lnot (Aig.band aig li lj))
        | Xor -> Some (Aig.bxor aig li lj)
        | No_gate -> search i j (phase + 1)
      end
    end
  in
  search 0 1 0

(* One candidate: an existing divisor matching the root directly
   (0-resub), else one fresh gate over two divisors (1-resub). *)
let candidates scratch ~max_leaves ~max_divisors aig root =
  match Local.window aig root ~max_leaves with
  | None -> Seq.empty
  | Some (w, root_tt) ->
    let divisors = collect_divisors scratch w root ~max_divisors in
    let not_root_tt = Tt.bnot root_tt in
    let zero_match =
      List.find_map
        (fun (v, tt) ->
          if Tt.equal tt root_tt then Some (Aig.lit_of v false)
          else if Tt.equal tt not_root_tt then Some (Aig.lit_of v true)
          else None)
        divisors
    in
    match zero_match with
    | Some candidate -> Seq.return candidate
    | None -> Option.to_seq (one_resub aig root_tt divisors)

let run ?(zero_gain = false) ?(max_leaves = 8) ?(max_divisors = 40) aig =
  let scratch = { mark = [||]; tables = [||]; base = -3 } in
  Local.run ~zero_gain (candidates scratch ~max_leaves ~max_divisors) aig
