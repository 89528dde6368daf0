module Aig = Sbm_aig.Aig
module Bdd = Sbm_bdd.Bdd

type config = { size_limit : int }

let default_config = { size_limit = 10 }

(* Alg. 1: Boolean difference computation and implementation using
   BDDs. Comments cite the paper's pseudocode lines. *)
let compute ctx config ~f ~g =
  let man = Bdd_bridge.man ctx in
  let aig = Bdd_bridge.aig ctx in
  match (Bdd_bridge.bdd_of_node ctx f, Bdd_bridge.bdd_of_node ctx g) with
  | None, _ | _, None -> None (* budget-overrun node: skip (III-C) *)
  | Some bddf, Some bddg -> (
    match Bdd.mxor man bddf bddg (* line 4 *) with
    | exception Bdd.Limit ->
      Bdd_bridge.bump_limit_bail ctx;
      None
    | bdd_diff -> (
      let g_lit = Aig.lit_of g false in
      match Bdd_bridge.node_of_bdd ctx bdd_diff with
      | Some (d, compl) when d <> f && d <> g ->
        (* Lines 5-7: the difference already exists as node [d]; the
           candidate costs one XOR. *)
        Some (Aig.bxor aig (Aig.lit_of d compl) g_lit)
      | _ ->
        (* Lines 8-10: size filter on the difference BDD, bounding the
           size of the difference network merged into the AIG. *)
        if Bdd.size man bdd_diff > config.size_limit then None
        else begin
          (* Lines 11-14: saving filter. The MFFC of [f] bounds the
             nodes released; the BDD size lower-bounds the AIG nodes
             needed to implement the difference. Sharing with the
             existing network is captured later by the exact gain
             check at commit time. *)
          let saving = Aig.mffc_size aig f in
          if Bdd.size man bdd_diff + Sbm_aig.Synth.xor_cost > saving then None
          else begin
            (* Lines 15-16: implement the difference as an AIG via
               structural hashing on the BDD. *)
            let bdiff_node = Bdd_bridge.to_aig_lit ctx bdd_diff in
            Some (Aig.bxor aig bdiff_node g_lit)
          end
        end))
