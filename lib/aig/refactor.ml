module Tt = Sbm_truthtable.Tt

(* Nodes whose MFFC is smaller have little to reclaim; skipping them
   removes most of the pass's cost on share-heavy networks. *)
let min_mffc = 2

(* One candidate: the window's cone function resynthesized from
   scratch over the cut. *)
let candidates ~max_leaves aig v =
  if Aig.mffc_size aig v < min_mffc then Seq.empty
  else
    match Local.window aig v ~max_leaves with
    | None -> Seq.empty
    | Some (w, tt) ->
      Seq.return (Synth.of_tt aig tt (Array.map (fun leaf -> Aig.lit_of leaf false) w.leaves))

let run ?(zero_gain = false) ?(max_leaves = 10) aig =
  Local.run ~zero_gain (candidates ~max_leaves:(min max_leaves Tt.max_vars)) aig
