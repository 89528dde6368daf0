module Tt = Sbm_truthtable.Tt

(* Decomposition choices recorded by the cost search and replayed by
   the builder. *)
type choice =
  | Const of bool
  | Literal of int * bool (* variable, complemented *)
  | Shannon of int (* mux(x, hi, lo) *)
  | Xor of int (* x xor lo *)
  | And_pos of int (* x and hi *)
  | And_neg of int (* ~x and lo *)
  | Or_pos of int (* x or lo *)
  | Or_neg of int (* ~x or hi *)

let mux_cost = 3
let xor_cost = 3

(* [compact tt] is [tt] over its support: the variables it ignores are
   dropped, highest first, so that the others keep their order. Also
   returns the support, ascending, as positions of [tt]. *)
let compact tt =
  let rec go t v support =
    if v < 0 then (t, support)
    else if Tt.depends_on t v then go t (v - 1) (v :: support)
    else go (Tt.drop t v false) (v - 1) support
  in
  go tt (Tt.num_vars tt - 1) []

(* Returns (cost, choice) for a table that depends on all its
   variables, memoized in [memo]; the choice names a variable of that
   table. Each sub-function is searched over its own support: renaming
   variables monotonically keeps every cost, ranking and tie-break, and
   scales every candidate's agreement by the same factor.

   The search is bounded: variables whose cofactors are degenerate
   (constant or complementary) decompose for free and are always
   explored; otherwise only the two most promising split variables
   (largest cofactor-agreement, a cheap binateness proxy) recurse. A
   sub-function of [m] variables costs one allocation-free pass over
   its [2^(m-6)] words (one word below 7 variables) per variable, plus
   the cofactors it recurses on, each half its size: at depth [d] of an
   [n]-leaf window that is [2^(n-d-6)] words, not the window's
   [2^(n-6)]. *)
let rec search memo tt =
  match Tt.Tbl.find_opt memo tt with
  | Some r -> r
  | None ->
    let n = Tt.num_vars tt in
    let r =
      if n = 0 then (0, Const (Tt.is_const1 tt))
      else if n = 1 then (0, Literal (0, not (Tt.equal tt (Tt.var 1 0))))
      else begin
        let cost v b = fst (search memo (fst (compact (Tt.drop tt v b)))) in
        let best = ref (max_int, Const false) in
        let consider c choice = if c < fst !best then best := (c, choice) in
        (* Pass 1: degenerate decompositions (single recursion each). *)
        let generic = ref [] in
        for v = 0 to n - 1 do
          let p = Tt.split tt v in
          if p land Tt.split_compl <> 0 then consider (cost v false + xor_cost) (Xor v)
          else if p land Tt.split_f0_zero <> 0 then consider (cost v true + 1) (And_pos v)
          else if p land Tt.split_f1_zero <> 0 then consider (cost v false + 1) (And_neg v)
          else if p land Tt.split_f0_one <> 0 then consider (cost v true + 1) (Or_neg v)
          else if p land Tt.split_f1_one <> 0 then consider (cost v false + 1) (Or_pos v)
          else
            (* Score: prefer splits whose cofactors agree a lot (they
               share structure and simplify). *)
            generic := (Tt.split_agreement p, v) :: !generic
        done;
        (* Pass 2: Shannon on the two best-scored variables; the stable
           sort keeps the higher variable first among equal scores. *)
        let ranked = List.stable_sort (fun (a, _) (b, _) -> compare b a) !generic in
        let take2 = match ranked with a :: b :: _ -> [ a; b ] | l -> l in
        List.iter
          (fun (_, v) ->
            let c0 = cost v false in
            let c1 = cost v true in
            consider (c0 + c1 + mux_cost) (Shannon v))
          take2;
        !best
      end
    in
    Tt.Tbl.add memo tt r;
    r

(* [leaves.(i)] drives variable [i] of [tt]; both shrink together, to
   the support and past each split variable. *)
let rec build memo aig leaves tt =
  let tt, support = compact tt in
  let leaves = Array.of_list (List.map (Array.get leaves) support) in
  let _, choice = search memo tt in
  let sub v b =
    let rest =
      Array.init (Array.length leaves - 1) (fun j -> leaves.(if j < v then j else j + 1))
    in
    build memo aig rest (Tt.drop tt v b)
  in
  match choice with
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
  let memo = Tt.Tbl.create 64 in
  build memo aig leaves tt

let cost_of_tt tt =
  let memo = Tt.Tbl.create 64 in
  fst (search memo (fst (compact tt)))
