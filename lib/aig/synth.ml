module Tt = Sbm_truthtable.Tt
module S = Sbm_synth_search.Synth_search

let xor_cost = S.xor_cost

(* Read only: the generated string is never written. *)
let table = Bytes.unsafe_of_string Synth_table.data

(* [leaves.(i)] drives variable [i] of [tt]; both shrink together, to
   the support and past each split variable. *)
let rec build memo aig leaves tt =
  let tt, support = S.compact tt in
  let leaves = Array.of_list (List.map (Array.get leaves) support) in
  let _, choice = S.search table memo tt in
  let sub v b =
    let rest =
      Array.init (Array.length leaves - 1) (fun j -> leaves.(if j < v then j else j + 1))
    in
    build memo aig rest (Tt.drop tt v b)
  in
  match (choice : S.choice) with
  | Const false -> Aig.const0
  | Const true -> Aig.const1
  | Literal (v, c) -> if c then Aig.lnot leaves.(v) else leaves.(v)
  | Shannon v ->
    let hi = sub v true in
    let lo = sub v false in
    Aig.bmux aig leaves.(v) hi lo
  | Xor v -> Aig.bxor aig leaves.(v) (sub v false)
  | And_pos v -> Aig.band aig leaves.(v) (sub v true)
  | And_neg v -> Aig.band aig (Aig.lnot leaves.(v)) (sub v false)
  | Or_pos v -> Aig.bor aig leaves.(v) (sub v false)
  | Or_neg v -> Aig.bor aig (Aig.lnot leaves.(v)) (sub v true)

let of_tt aig tt leaves =
  if Array.length leaves < Tt.num_vars tt then invalid_arg "Synth.of_tt: missing leaves";
  build (ref None) aig leaves tt

let cost_of_tt tt = fst (S.search table (ref None) (fst (S.compact tt)))
