module Tt = Sbm_truthtable.Tt

(* Collect divisor nodes for a window: nodes in the cone below [root]
   (excluding [root] itself) plus fanouts of cone nodes whose support
   stays within the leaf set. All truth tables are over the leaves. *)
let collect_divisors (w : Local.window) root ~max_divisors =
  let aig = w.aig and leaves = w.leaves in
  (* Side fanouts are evaluated under a fuel budget to avoid runaway
     exploration. *)
  w.fuel <- 64 * max_divisors;
  (* Collection does not edit the AIG, so one mark of the root's
     transitive fanout answers every exclusion test. *)
  let in_tfo = Aig.tfo_mark aig root in
  let consider v =
    if v <> root
       && (not (Hashtbl.mem w.tts v))
       && Aig.is_and aig v
       && not (in_tfo v)
    then ignore (Local.eval w v)
  in
  (* Seed: everything already evaluated is in the window; explore the
     fanouts of leaves and cone nodes once. *)
  let seeds = Hashtbl.fold (fun v _ acc -> v :: acc) w.tts [] in
  List.iter
    (fun v -> List.iter consider (Aig.fanout_nodes aig v))
    seeds;
  let divisors = ref [] in
  let count = ref 0 in
  Hashtbl.iter
    (fun v tt ->
      if v <> root && v <> 0 && (not (Array.mem v leaves)) && !count < max_divisors
         && not (in_tfo v)
      then begin
        incr count;
        divisors := (v, tt) :: !divisors
      end)
    w.tts;
  (* Leaves are divisors too (0-cost). *)
  let n = Array.length leaves in
  Array.iteri (fun i v -> divisors := (v, Tt.var n i) :: !divisors) leaves;
  !divisors

(* 1-resub: the first pair of divisors (in list order; per pair the
   input phases ++, +-, -+, --; per phase AND before its complement
   before XOR) that gives [root_tt] through one gate. Only that winner
   is built.

   Each divisor is profiled against the root once, so most pairs and
   phases are ruled out without a word pass over both tables. An AND
   (NAND) needs both phased operands to contain the root's onset
   (offset), {!Tt.and_operand}. An XOR needs the second divisor to
   equal the first XOR the root, up to complement, so the hashes of
   the two up to complement ([self], [partner]) must agree. A skipped
   probe is one {!Tt.gate_match} would have answered [No_gate], so the
   winner is the same. *)
let one_resub aig root_tt divisors =
  let arr = Array.of_list divisors in
  let num = Array.length arr in
  let fits = Array.map (fun (_, t) -> Tt.and_operand t root_tt) arr in
  let key t = Tt.hash (if Tt.get_bit t 0 then Tt.bnot t else t) in
  let self = Array.map (fun (_, t) -> key t) arr in
  let partner = Array.map (fun (_, t) -> key (Tt.bxor t root_tt)) arr in
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
let candidates ~max_leaves ~max_divisors aig root =
  match Local.window aig root ~max_leaves with
  | None -> Seq.empty
  | Some (w, root_tt) ->
    let divisors = collect_divisors w root ~max_divisors in
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
  Local.run ~zero_gain (candidates ~max_leaves ~max_divisors) aig
