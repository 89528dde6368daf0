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

(* 1-resub: the first pair of divisors (in list order, all four input
   phases) that gives [root_tt] through one AND or XOR gate, built. *)
let one_resub aig root_tt divisors =
  let arr = Array.of_list divisors in
  let num = Array.length arr in
  let gate (vi, ti) (vj, tj) (p1, p2) =
    let li = Aig.lit_of vi p1 and lj = Aig.lit_of vj p2 in
    match Tt.and_match ~na:p1 ti ~nb:p2 tj root_tt with
    | 0 -> Some (fun () -> Aig.band aig li lj)
    | 1 -> Some (fun () -> Aig.lnot (Aig.band aig li lj))
    | _ when Tt.xor_equal ~na:p1 ti ~nb:p2 tj root_tt -> Some (fun () -> Aig.bxor aig li lj)
    | _ -> None
  in
  let phases = [ (false, false); (false, true); (true, false); (true, true) ] in
  let rec search i j =
    if i >= num then None
    else if j >= num then search (i + 1) (i + 2)
    else
      match List.find_map (gate arr.(i) arr.(j)) phases with
      | Some build -> Some (build ())
      | None -> search i (j + 1)
  in
  search 0 1

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
