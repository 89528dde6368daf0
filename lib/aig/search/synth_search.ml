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

(* The search's answer on every table of at most [table_vars] variables
   that depends on all of them, in one table: slot [offset.(n) + w]
   holds the [n]-variable table with 64-bit value [w] (2 + 4 + 16 + 256
   + 65 536 slots), as the 16-bit entry [code choice + 64 * cost]. The
   other slots are never read. *)
let table_vars = 4
let offset = [| 0; 2; 6; 22; 278 |]
let table_bytes = 2 * (offset.(table_vars) + (1 lsl (1 lsl table_vars)))

(* Every choice on at most [table_vars] variables; [code c] is the
   position of [c]. *)
let choices =
  Array.of_list
    (Const false :: Const true
    :: List.concat_map
         (fun v ->
           [ Literal (v, false); Literal (v, true); Shannon v; Xor v;
             And_pos v; And_neg v; Or_pos v; Or_neg v ])
         [ 0; 1; 2; 3 ])

let code = function
  | Const b -> Bool.to_int b
  | Literal (v, c) -> 2 + (8 * v) + Bool.to_int c
  | Shannon v -> 4 + (8 * v)
  | Xor v -> 5 + (8 * v)
  | And_pos v -> 6 + (8 * v)
  | And_neg v -> 7 + (8 * v)
  | Or_pos v -> 8 + (8 * v)
  | Or_neg v -> 9 + (8 * v)

let slot tt = 2 * (offset.(Tt.num_vars tt) + Int64.to_int (Tt.to_word tt))

(* Returns (cost, choice) for a table that depends on all its
   variables; the choice names a variable of that table. A table on at
   most [table_vars] variables is read from [table]. A table on
   more than [table_vars] variables is memoized in [memo], which is
   allocated when the first such table arrives. Each sub-function is
   searched over its own support: renaming variables monotonically
   keeps every cost, ranking and tie-break, and scales every
   candidate's agreement by the same factor.

   The search is bounded: variables whose cofactors are degenerate
   (constant or complementary) decompose for free and are always
   explored; otherwise only the two most promising split variables
   (largest cofactor-agreement, a cheap binateness proxy) recurse. A
   sub-function of [m] variables costs one allocation-free pass over
   its [2^(m-6)] words (one word below 7 variables) per variable, plus
   the cofactors it recurses on, each half its size: at depth [d] of an
   [n]-leaf window that is [2^(n-d-6)] words, not the window's
   [2^(n-6)]. *)
let rec search table memo tt =
  if Tt.num_vars tt <= table_vars then begin
    let e = Bytes.get_uint16_le table (slot tt) in
    (e lsr 6, choices.(e land 63))
  end
  else begin
    let tbl =
      match !memo with
      | Some tbl -> tbl
      | None ->
        let tbl = Tt.Tbl.create 64 in
        memo := Some tbl;
        tbl
    in
    match Tt.Tbl.find_opt tbl tt with
    | Some r -> r
    | None ->
      let r = decide table memo tt in
      Tt.Tbl.add tbl tt r;
      r
  end

and decide table memo tt =
  let n = Tt.num_vars tt in
  if n = 0 then (0, Const (Tt.is_const1 tt))
  else if n = 1 then (0, Literal (0, not (Tt.equal tt (Tt.var 1 0))))
  else begin
    let cost v b = fst (search table memo (fst (compact (Tt.drop tt v b)))) in
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

(* Filled in increasing variable count: a table's search reads only
   tables on fewer variables. *)
let fill table =
  let memo = ref None in
  for n = 0 to table_vars do
    for w = 0 to (1 lsl (1 lsl n)) - 1 do
      let tt = Tt.of_word n (Int64.of_int w) in
      if List.length (Tt.support tt) = n then begin
        let cost, choice = decide table memo tt in
        Bytes.set_uint16_le table (slot tt) (code choice + (64 * cost))
      end
    done
  done
