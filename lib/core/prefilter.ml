module Aig = Sbm_aig.Aig
module Sim = Sbm_aig.Sim
module Rng = Sbm_util.Rng
module Hash64 = Sbm_util.Hash64

type verdict = Reject_const | Reject_signature | Maybe

(* --- pattern bank --- *)

type bank = {
  mutable cex : bool array list; (* newest first; rendered oldest first *)
  mutable cex_count : int;
  mutable refinement_count : int;
}

(* Retained counterexamples; further refinements still count but are
   dropped. *)
let max_cex = 256

(* Seed of the random-pattern stream. *)
let seed = 0xd1ff

let create_bank () = { cex = []; cex_count = 0; refinement_count = 0 }

let refine bank bits =
  bank.refinement_count <- bank.refinement_count + 1;
  if bank.cex_count < max_cex then begin
    bank.cex <- Array.copy bits :: bank.cex;
    bank.cex_count <- bank.cex_count + 1
  end

let refinements bank = bank.refinement_count

(* --- audit-trail components (DESIGN.md §9) ---

   [bank_digest] folds the full refinement state — shape parameters
   plus every stored counterexample in arrival order — so the
   fingerprint trail sees each CEGAR refinement as a digest change at
   the next boundary. [bank_seeds] is the RNG-seed component: it pins
   the random-pattern stream identity, which together with the digest
   determines every signature the filter computes. *)

let bank_digest bank =
  let acc = Hash64.mix2 (Int64.of_int Sim.default_words) (Int64.of_int max_cex) in
  let acc = Hash64.mix2 acc (Int64.of_int bank.refinement_count) in
  let acc = Hash64.mix2 acc (Int64.of_int bank.cex_count) in
  List.fold_left
    (fun acc bits ->
      Array.fold_left
        (fun acc b -> Hash64.mix2 acc (if b then 1L else 0L))
        (Hash64.mix2 acc (Int64.of_int (Array.length bits)))
        bits)
    acc
    (List.rev bank.cex)

let bank_seeds _bank =
  Hash64.mix2 (Int64.of_int seed) (Int64.of_int Sim.default_words)

(* Base pattern word for (round, input): an independent SplitMix64
   draw per cell, so the bank renders identically for any input count
   (a flow pass that compacts the AIG re-attaches without changing
   the patterns of surviving inputs). *)
let base_word ~word ~input =
  let r = Rng.create (seed lxor (word * 0x1000003) lxor (input * 0x10331)) in
  ignore (Rng.next64 r);
  Rng.next64 r

(* Networks with at most this many inputs are simulated on {e every}
   input assignment instead of random patterns: the signature is then
   the node's full truth table, so verdicts — and the canonical
   signature indexes the difference engine builds on top — are exact
   rather than sampled. 11 inputs = 2048 patterns = 32 words, a
   negligible store for small-input networks and a large win on
   decoder-like structures where most nodes alias to constant under
   random sampling. Counterexample patterns are skipped in this mode
   (every assignment is already present). *)
let exhaustive_max_inputs = 11

let exhaustive num_inputs = num_inputs <= exhaustive_max_inputs

(* Bit [b] of word [w] for input [i] is bit [i] of the minterm index
   [64*w + b]. For [i < 6] that is a fixed within-word stripe; above,
   it is constant per word. Inputs below 6 repeat the minterm space
   across the word — harmless duplicates that keep the store at least
   one word wide. *)
let stripe =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let exhaustive_input_words num_inputs =
  let nwords = max 1 ((1 lsl num_inputs) / 64) in
  Array.init nwords (fun w ->
      Array.init num_inputs (fun i ->
          if i < 6 then stripe.(i)
          else if (w lsr (i - 6)) land 1 = 1 then -1L
          else 0L))

let input_words bank num_inputs =
  if exhaustive num_inputs then exhaustive_input_words num_inputs
  else begin
    let cex = Array.of_list (List.rev bank.cex) in
    let cex_words = (Array.length cex + 63) / 64 in
    Array.init (Sim.default_words + cex_words) (fun w ->
        if w < Sim.default_words then
          Array.init num_inputs (fun i -> base_word ~word:w ~input:i)
        else
          Array.init num_inputs (fun i ->
              let base = (w - Sim.default_words) * 64 in
              let word = ref 0L in
              for j = 0 to 63 do
                let k = base + j in
                if
                  k < Array.length cex
                  && i < Array.length cex.(k)
                  && cex.(k).(i)
                then word := Int64.logor !word (Int64.shift_left 1L j)
              done;
              !word))
  end

(* --- signature store --- *)

type t = {
  bank : bank;
  aig : Aig.t;
  patterns : int64 array array; (* [word].[input], immutable *)
  mutable values : int64 array array; (* [word].[node] *)
  mutable valid : Bytes.t;
  nwords : int;
}

let attach bank aig =
  let patterns = input_words bank (Aig.num_inputs aig) in
  let values = Array.map (fun words -> Sim.simulate aig words) patterns in
  {
    bank;
    aig;
    patterns;
    values;
    valid = Bytes.make (Aig.num_nodes aig) '\001';
    nwords = Array.length patterns;
  }

let fork t snapshot =
  {
    t with
    aig = snapshot;
    values = Array.map Array.copy t.values;
    valid = Bytes.copy t.valid;
  }

let words t = t.nwords

let grow t v =
  let n = Bytes.length t.valid in
  if v >= n then begin
    let n' = max (v + 1) (2 * n) in
    let valid' = Bytes.make n' '\000' in
    Bytes.blit t.valid 0 valid' 0 n;
    t.valid <- valid';
    t.values <-
      Array.map
        (fun arr ->
          let arr' = Array.make n' 0L in
          Array.blit arr 0 arr' 0 n;
          arr')
        t.values
  end

(* Recompute the invalid cone under [v] iteratively (explicit stack:
   partition cones are shallow but rebuilt cones after a long run of
   edits need not be). Nodes that are neither const, input nor live
   AND read as 0, matching [Sim.simulate] on dead nodes. *)
let ensure t v =
  grow t v;
  if Bytes.get t.valid v = '\000' then begin
    let stack = ref [ v ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
        if Bytes.get t.valid x = '\001' then stack := rest
        else if Aig.is_and t.aig x then begin
          let f0 = Aig.fanin0 t.aig x and f1 = Aig.fanin1 t.aig x in
          let n0 = Aig.node_of f0 and n1 = Aig.node_of f1 in
          grow t (max n0 n1);
          let need0 = Bytes.get t.valid n0 = '\000' in
          let need1 = Bytes.get t.valid n1 = '\000' in
          if need0 || need1 then begin
            let pending = if need1 then [ n1 ] else [] in
            let pending = if need0 then n0 :: pending else pending in
            stack := pending @ !stack
          end
          else begin
            for w = 0 to t.nwords - 1 do
              let v0 =
                let x0 = t.values.(w).(n0) in
                if Aig.is_compl f0 then Int64.lognot x0 else x0
              in
              let v1 =
                let x1 = t.values.(w).(n1) in
                if Aig.is_compl f1 then Int64.lognot x1 else x1
              in
              t.values.(w).(x) <- Int64.logand v0 v1
            done;
            Bytes.set t.valid x '\001';
            stack := rest
          end
        end
        else begin
          for w = 0 to t.nwords - 1 do
            t.values.(w).(x) <-
              (if Aig.is_input t.aig x then
                 t.patterns.(w).(Aig.input_index t.aig x)
               else 0L)
          done;
          Bytes.set t.valid x '\001';
          stack := rest
        end
    done
  end

let value t v w =
  ensure t v;
  t.values.(w).(v)

let lit_value t l w =
  let x = value t (Aig.node_of l) w in
  if Aig.is_compl l then Int64.lognot x else x

let note_edit t n =
  grow t n;
  let seen = Hashtbl.create 64 in
  let stack = ref [ n ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
      stack := rest;
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        grow t x;
        Bytes.set t.valid x '\000';
        List.iter (fun y -> stack := y :: !stack) (Aig.fanout_nodes t.aig x)
      end
  done

(* --- signatures and verdicts --- *)

let canonical_of_words ws =
  if Int64.logand ws.(0) 1L = 1L then Array.map Int64.lognot ws else ws

let signature t l =
  ensure t (Aig.node_of l);
  canonical_of_words (Array.init t.nwords (fun w -> lit_value t l w))

let is_const_words ws =
  Array.for_all (fun w -> w = 0L) ws || Array.for_all (fun w -> w = -1L) ws

let compatible t a b =
  ensure t (Aig.node_of a);
  ensure t (Aig.node_of b);
  let wa = Array.init t.nwords (fun w -> lit_value t a w) in
  let wb = Array.init t.nwords (fun w -> lit_value t b w) in
  if wa = wb then Maybe
  else if is_const_words wb || is_const_words wa then Reject_const
  else Reject_signature

let compatible_masked t ~care a b =
  if Array.length care <> t.nwords then
    invalid_arg "Prefilter.compatible_masked: care width mismatch";
  ensure t (Aig.node_of a);
  ensure t (Aig.node_of b);
  let pos = ref true and neg = ref true in
  for w = 0 to t.nwords - 1 do
    let d = Int64.logand (Int64.logxor (lit_value t a w) (lit_value t b w)) care.(w) in
    if d <> 0L then pos := false;
    if d <> care.(w) then neg := false
  done;
  if !pos || !neg then Maybe
  else begin
    (* Constant on the care set, in either phase? *)
    let const0 = ref true and const1 = ref true in
    for w = 0 to t.nwords - 1 do
      let vb = Int64.logand (lit_value t b w) care.(w) in
      if vb <> 0L then const0 := false;
      if vb <> care.(w) then const1 := false
    done;
    if !const0 || !const1 then Reject_const else Reject_signature
  end

(* --- counters --- *)

module M = Sbm_obs.Metrics

let m_rejected_signature =
  M.counter ~engine:"prefilter" ~unit_:"candidates"
    "prefilter.rejected_signature"
    "candidates rejected by signature mismatch before any BDD work"

let m_rejected_const =
  M.counter ~engine:"prefilter" ~unit_:"candidates" "prefilter.rejected_const"
    "candidates rejected as provably constant under the care set"

let m_survivors =
  M.counter ~engine:"prefilter" ~unit_:"candidates" "prefilter.survivors"
    "candidates the prefilter passed through to the BDD layer"

let m_cex_refinements =
  M.counter ~engine:"prefilter" ~unit_:"patterns" "prefilter.cex_refinements"
    "SAT counterexample patterns folded back into the signature bank"

let count = function
  | Maybe -> M.incr m_survivors
  | Reject_const -> M.incr m_rejected_const
  | Reject_signature -> M.incr m_rejected_signature
