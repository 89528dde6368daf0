module Tt = Sbm_truthtable.Tt

(* Collect divisor nodes for a window: nodes in the cone below [root]
   (excluding [root] itself) plus fanouts of cone nodes whose support
   stays within the leaf set. All truth tables are over the leaves. *)
let collect_divisors aig root leaves ~max_divisors =
  let n = Array.length leaves in
  let tts : (int, Tt.t) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace tts v (Tt.var n i)) leaves;
  Hashtbl.replace tts 0 (Tt.const0 n);
  (* Evaluate a node if its support is within the leaves; memoized.
     Returns None when the node's cone escapes. Bounded by a fuel
     counter to avoid runaway exploration. *)
  let fuel = ref (64 * max_divisors) in
  let rec eval v =
    match Hashtbl.find_opt tts v with
    | Some tt -> Some tt
    | None ->
      if (not (Aig.is_and aig v)) || !fuel <= 0 then None
      else begin
        decr fuel;
        let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
        match eval (Aig.node_of f0) with
        | None -> None
        | Some t0 -> (
          match eval (Aig.node_of f1) with
          | None -> None
          | Some t1 ->
            let t0 = if Aig.is_compl f0 then Tt.bnot t0 else t0 in
            let t1 = if Aig.is_compl f1 then Tt.bnot t1 else t1 in
            let tt = Tt.band t0 t1 in
            Hashtbl.replace tts v tt;
            Some tt)
      end
  in
  (* The cone of root itself: leaves form a cut, so evaluation can
     only fail by running out of fuel on a very large interior; give
     the root cone its own generous budget first. *)
  fuel := max !fuel 100_000;
  let root_tt =
    match eval root with
    | Some tt -> tt
    | None -> invalid_arg "Resub: root cone escapes leaves"
  in
  fuel := 64 * max_divisors;
  (* Gather divisors: cone nodes and side fanouts of evaluated nodes. *)
  let divisors = ref [] in
  let count = ref 0 in
  let consider v =
    if v <> root && !count < max_divisors
       && (not (Hashtbl.mem tts v))
       && Aig.is_and aig v
       && not (Aig.in_tfi aig ~node:root ~root:v)
    then begin
      match eval v with
      | Some _ -> ()
      | None -> ()
    end
  in
  (* Seed: everything already evaluated is in the window; explore the
     fanouts of leaves and cone nodes once. *)
  let seeds = Hashtbl.fold (fun v _ acc -> v :: acc) tts [] in
  List.iter
    (fun v -> List.iter consider (Aig.fanout_nodes aig v))
    seeds;
  Hashtbl.iter
    (fun v tt ->
      if v <> root && v <> 0 && not (Array.exists (fun l -> l = v) leaves) then begin
        if !count < max_divisors && not (Aig.in_tfi aig ~node:root ~root:v) then begin
          incr count;
          divisors := (v, tt) :: !divisors
        end
      end)
    tts;
  (* Leaves are divisors too (0-cost). *)
  Array.iteri (fun i v -> divisors := (v, Tt.var n i) :: !divisors) leaves;
  (root_tt, !divisors)

let resub_node aig ~zero_gain ~max_leaves ~max_divisors root =
  let leaves = Refactor.reconv_cut aig root ~max_leaves in
  if Array.length leaves < 2 || Array.length leaves > Tt.max_vars then 0
  else begin
    let root_tt, divisors = collect_divisors aig root leaves ~max_divisors in
    let commit candidate =
      (* Strashing can rebuild the root inside the candidate cone
         (e.g. root = a & ~b inside an a-xor-b candidate): committing
         would close a cycle, so such candidates are discarded. *)
      if
        Aig.node_of candidate = root
        || Aig.in_tfi aig ~node:root ~root:(Aig.node_of candidate)
      then begin
        Aig.delete_dangling aig (Aig.node_of candidate);
        0
      end
      else begin
        let gain = Aig.gain_of_replacement aig ~root ~candidate in
        if gain > 0 || (zero_gain && gain = 0) then begin
          Aig.replace aig root candidate;
          gain
        end
        else begin
          Aig.delete_dangling aig (Aig.node_of candidate);
          0
        end
      end
    in
    (* 0-resub: an existing node matches directly. *)
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
    | Some candidate -> commit candidate
    | None ->
      (* 1-resub: two divisors through one gate. *)
      let arr = Array.of_list divisors in
      let found = ref None in
      let num = Array.length arr in
      (try
         for i = 0 to num - 1 do
           let vi, ti = arr.(i) in
           for j = i + 1 to num - 1 do
             let vj, tj = arr.(j) in
             let try_phase p1 p2 =
               let li = Aig.lit_of vi p1 and lj = Aig.lit_of vj p2 in
               (match Tt.and_match ~na:p1 ti ~nb:p2 tj root_tt with
               | 0 -> found := Some (`And, li, lj, false)
               | 1 -> found := Some (`And, li, lj, true)
               | _ ->
                 if Tt.xor_equal ~na:p1 ti ~nb:p2 tj root_tt then
                   found := Some (`Xor, li, lj, false));
               if !found <> None then raise Exit
             in
             try_phase false false;
             try_phase false true;
             try_phase true false;
             try_phase true true
           done
         done
       with Exit -> ());
      (match !found with
      | None -> 0
      | Some (gate, li, lj, compl) ->
        if Sys.getenv_opt "SBM_DEBUG_RESUB" <> None then
          Printf.eprintf "resub commit: root=%d gate=%s li=%d lj=%d compl=%b\n%!" root
            (match gate with `And -> "and" | `Xor -> "xor")
            li lj compl;
        let lit =
          match gate with
          | `And -> Aig.band aig li lj
          | `Xor -> Aig.bxor aig li lj
        in
        commit (if compl then Aig.lnot lit else lit))
  end

let run ?(zero_gain = false) ?(max_leaves = 8) ?(max_divisors = 40) aig =
  let order = Aig.topo aig in
  let total = ref 0 in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then
        total := !total + resub_node aig ~zero_gain ~max_leaves ~max_divisors v)
    order;
  !total
