(* One candidate per 4-input cut of at least two leaves: the cut
   function resynthesized over the leaves. *)
let candidates aig v =
  Cut.local aig v ~k:4 ~max_cuts:10 ~depth:8
  |> List.to_seq
  |> Seq.filter_map (fun (c : Cut.cut) ->
         if Array.length c.leaves < 2 then None
         else
           let leaves = Array.map (fun leaf -> Aig.lit_of leaf false) c.leaves in
           Some (Synth.of_tt aig (Cut.cut_tt_full c) leaves))

let run ?(zero_gain = false) aig = Local.run ~zero_gain candidates aig
