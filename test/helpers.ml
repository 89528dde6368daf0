(* Shared test utilities: random network generation and equivalence
   gates used by every optimization-engine suite. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

(* A random strashed AIG. The pool starts with the input literals and
   grows with every created node; fanins are drawn from the pool with
   random complementation, so the graph has realistic reconvergence
   and inverter distribution. *)
let random_aig ?(inputs = 8) ?(ands = 60) ?(outputs = 4) rng =
  let aig = Aig.create () in
  let pool = ref [] in
  for _ = 1 to inputs do
    pool := Aig.add_input aig :: !pool
  done;
  let pool = ref (Array.of_list !pool) in
  let pick () =
    let arr = !pool in
    let l = arr.(Rng.int rng (Array.length arr)) in
    if Rng.bool rng then Aig.lnot l else l
  in
  for _ = 1 to ands do
    let l = Aig.band aig (pick ()) (pick ()) in
    if Aig.node_of l <> 0 then
      pool := Array.append !pool [| Aig.lpos l |]
  done;
  for _ = 1 to outputs do
    ignore (Aig.add_output aig (pick ()))
  done;
  aig

(* A random AIG with XOR/MUX structure mixed in: harder for the
   optimizers, richer for the Boolean-difference engine. *)
let random_xor_aig ?(inputs = 8) ?(gates = 40) ?(outputs = 4) rng =
  let aig = Aig.create () in
  let pool = ref [] in
  for _ = 1 to inputs do
    pool := Aig.add_input aig :: !pool
  done;
  let pool = ref (Array.of_list !pool) in
  let pick () =
    let arr = !pool in
    let l = arr.(Rng.int rng (Array.length arr)) in
    if Rng.bool rng then Aig.lnot l else l
  in
  for _ = 1 to gates do
    let l =
      match Rng.int rng 4 with
      | 0 -> Aig.band aig (pick ()) (pick ())
      | 1 -> Aig.bor aig (pick ()) (pick ())
      | 2 -> Aig.bxor aig (pick ()) (pick ())
      | _ -> Aig.bmux aig (pick ()) (pick ()) (pick ())
    in
    if Aig.node_of l <> 0 then pool := Array.append !pool [| Aig.lpos l |]
  done;
  for _ = 1 to outputs do
    ignore (Aig.add_output aig (pick ()))
  done;
  aig

let assert_equiv ?(msg = "networks must stay equivalent") a b =
  match Sbm_cec.Cec.check a b with
  | Sbm_cec.Cec.Equivalent -> ()
  | Sbm_cec.Cec.Counterexample cex ->
    let bits = Array.to_list cex |> List.map (fun b -> if b then "1" else "0") in
    Alcotest.failf "%s (cex: %s)" msg (String.concat "" bits)
  | Sbm_cec.Cec.Unknown -> Alcotest.failf "%s (equivalence unknown)" msg

(* Exhaustive equivalence for small input counts: stronger than random
   simulation, independent of the SAT path. *)
let assert_equiv_exhaustive ?(msg = "exhaustive equivalence") a b =
  let n = Aig.num_inputs a in
  assert (n <= 12);
  for m = 0 to (1 lsl n) - 1 do
    let bits = Array.init n (fun i -> (m lsr i) land 1 = 1) in
    let oa = Sbm_aig.Sim.eval a bits in
    let ob = Sbm_aig.Sim.eval b bits in
    if oa <> ob then Alcotest.failf "%s: differ on minterm %d" msg m
  done

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* Run [f] under the root span of a fresh trace: [f]'s result and the
   trace's counter totals, the registry delta over the run. *)
let with_totals f =
  let trace = Sbm_obs.create () in
  let root = Sbm_obs.root trace "test" in
  let result = Fun.protect ~finally:(fun () -> Sbm_obs.close root) (fun () -> f root) in
  (result, Sbm_obs.totals trace)

(* One counter of a {!with_totals} list; 0 when never bumped. *)
let count totals name = Option.value ~default:0 (List.assoc_opt name totals)
