(* The simulation-guided candidate prefilter: verdict soundness
   against exhaustive truth tables, counterexample-guided refinement,
   incremental re-simulation after edits, and the headline contract —
   each of the four Boolean engines produces bit-identical QoR with
   the prefilter off or on. *)

module Aig = Sbm_aig.Aig
module Sim = Sbm_aig.Sim
module Rng = Sbm_util.Rng
module Epfl = Sbm_epfl.Epfl
module Prefilter = Sbm_core.Prefilter

(* Exhaustive per-node truth tables for an AIG with <= 6 inputs: one
   64-bit word per node, bit m = node value under minterm m. *)
let truth_tables aig =
  let n = Aig.num_inputs aig in
  assert (n <= 6);
  let inputs =
    Array.init n (fun i ->
        let w = ref 0L in
        for m = 0 to 63 do
          if (m lsr i) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L m)
        done;
        !w)
  in
  let mask =
    if n = 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L
  in
  (Array.map (fun w -> Int64.logand w mask) (Sim.simulate aig inputs), mask)

(* --- soundness: Reject implies real inequivalence --- *)

(* A [Reject_*] verdict must certify that the pair differs on a
   concrete input pattern, hence on some minterm: cross-check every
   node pair (both phases) against exhaustive truth tables. *)
let test_soundness_exhaustive () =
  let rng = Rng.create 0xf117e5 in
  for _ = 1 to 10 do
    let aig = Helpers.random_xor_aig ~inputs:6 ~gates:40 ~outputs:4 rng in
    let bank = Prefilter.create_bank () in
    let st = Prefilter.attach bank aig in
    let tts, mask = truth_tables aig in
    let nodes = ref [] in
    for v = 0 to Aig.num_nodes aig - 1 do
      if (Aig.is_input aig v || Aig.is_and aig v) && not (Aig.is_dead aig v)
      then nodes := v :: !nodes
    done;
    let nodes = Array.of_list !nodes in
    Array.iter
      (fun f ->
        Array.iter
          (fun g ->
            List.iter
              (fun phase ->
                let verdict =
                  Prefilter.compatible st (Aig.lit_of f false)
                    (Aig.lit_of g phase)
                in
                let tg =
                  if phase then Int64.logand (Int64.lognot tts.(g)) mask
                  else tts.(g)
                in
                if verdict <> Prefilter.Maybe && tts.(f) = tg then
                  Alcotest.failf
                    "rejected an equivalent pair (%d, %d phase %b)" f g phase)
              [ false; true ])
          nodes)
      nodes
  done

(* [compatible_masked] against a straight-line reference over
   [Prefilter.value]: Maybe iff some phase of [b] agrees with [a] on
   every care bit; Reject_const iff rejected and [b] is constant on
   the care set. *)
let test_masked_reference () =
  let rng = Rng.create 0xca4e in
  for _ = 1 to 10 do
    let aig = Helpers.random_aig ~inputs:8 ~ands:50 ~outputs:4 rng in
    let bank = Prefilter.create_bank () in
    let st = Prefilter.attach bank aig in
    let w = Prefilter.words st in
    let care = Array.init w (fun _ -> Rng.next64 rng) in
    let live = ref [] in
    for v = 0 to Aig.num_nodes aig - 1 do
      if (Aig.is_input aig v || Aig.is_and aig v) && not (Aig.is_dead aig v)
      then live := v :: !live
    done;
    let live = Array.of_list !live in
    let pick () = live.(Rng.int rng (Array.length live)) in
    for _ = 1 to 200 do
      let a = Aig.lit_of (pick ()) (Rng.bool rng) in
      let b = Aig.lit_of (pick ()) (Rng.bool rng) in
      let agrees compl =
        Array.for_all Fun.id
          (Array.init w (fun i ->
               let bv = Prefilter.lit_value st b i in
               let bv = if compl then Int64.lognot bv else bv in
               Int64.logand care.(i)
                 (Int64.logxor (Prefilter.lit_value st a i) bv)
               = 0L))
      in
      let expected_maybe = agrees false || agrees true in
      let verdict = Prefilter.compatible_masked st ~care a b in
      Alcotest.(check bool)
        "masked verdict matches reference" expected_maybe
        (verdict = Prefilter.Maybe)
    done
  done

(* --- counterexample-guided refinement --- *)

(* 12 inputs keeps the bank in the random+cex regime (the exhaustive
   cutover is at {!Prefilter.exhaustive_max_inputs}). *)
let test_refine_patterns () =
  let bank = Prefilter.create_bank () in
  Alcotest.(check int) "no refinements yet" 0 (Prefilter.refinements bank);
  Prefilter.refine bank [| true; false; true |];
  Prefilter.refine bank [| false; true |];
  Alcotest.(check int) "two refinements" 2 (Prefilter.refinements bank);
  let words = Prefilter.input_words bank 12 in
  let base = Sbm_aig.Sim.default_words in
  Alcotest.(check int) "base words + one cex word" (base + 1) (Array.length words);
  (* Cex word: bit k of input i = assignment k's value for input i,
     oldest first; missing bits read as 0. *)
  let cex = words.(base) in
  Alcotest.(check int64) "input 0 bits" 1L cex.(0);
  Alcotest.(check int64) "input 1 bits" 2L cex.(1);
  Alcotest.(check int64) "input 2 bits (padded)" 1L cex.(2);
  Alcotest.(check int64) "input 11 bits (absent)" 0L cex.(11)

(* Small-input networks are simulated exhaustively: the signature is
   the truth table, so even the needle-in-a-haystack pair — the AND of
   all 11 inputs vs. constant false, differing on one minterm out of
   2048 — is rejected without any refinement. *)
let test_exhaustive_small_inputs () =
  let aig = Aig.create () in
  let ins = Array.init 11 (fun _ -> Aig.add_input aig) in
  let conj = Array.fold_left (fun acc l -> Aig.band aig acc l) Aig.const1 ins in
  ignore (Aig.add_output aig conj);
  let bank = Prefilter.create_bank () in
  let st = Prefilter.attach bank aig in
  Alcotest.(check int) "full truth table width" 32 (Prefilter.words st);
  Alcotest.(check bool) "exhaustive store catches the lone minterm" true
    (Prefilter.compatible st conj Aig.const0 <> Prefilter.Maybe);
  (* And the only disagreeing assignment is accepted as compatible in
     the complemented phase nowhere — sanity that Maybe still happens
     where it must: a node vs. itself. *)
  Alcotest.(check bool) "reflexive Maybe" true
    (Prefilter.compatible st conj conj = Prefilter.Maybe)

(* A pair the seeded patterns cannot distinguish — the AND of 16
   inputs vs. constant false differs only on the all-ones assignment —
   must flip from Maybe to Reject once the disproving assignment is
   folded back. *)
let test_refine_kills_false_positive () =
  let aig = Aig.create () in
  let ins = Array.init 16 (fun _ -> Aig.add_input aig) in
  let conj = Array.fold_left (fun acc l -> Aig.band aig acc l) Aig.const1 ins in
  ignore (Aig.add_output aig conj);
  let bank = Prefilter.create_bank () in
  let st = Prefilter.attach bank aig in
  let f = conj and g = Aig.const0 in
  Alcotest.(check bool) "seeded patterns miss the all-ones minterm" true
    (Prefilter.compatible st f g = Prefilter.Maybe);
  Prefilter.refine bank (Array.make 16 true);
  let st = Prefilter.attach bank aig in
  Alcotest.(check bool) "refined store distinguishes the pair" true
    (Prefilter.compatible st f g <> Prefilter.Maybe)

(* --- incremental re-simulation --- *)

(* After a function-changing edit ([note_edit] before [Aig.replace]),
   every lazily recomputed value must equal a from-scratch attach.
   Compare output-reachable nodes only: [Sim.simulate] evaluates in
   topological order from the outputs, so a live node orphaned from
   every output reads 0 in a fresh attach while the lazy recompute
   derives its true function — both sound, engines never query
   orphans. *)
let output_reachable aig =
  let reach = Hashtbl.create 256 in
  let rec go v =
    if not (Hashtbl.mem reach v) then begin
      Hashtbl.add reach v ();
      if Aig.is_and aig v then begin
        go (Aig.node_of (Aig.fanin0 aig v));
        go (Aig.node_of (Aig.fanin1 aig v))
      end
    end
  in
  Array.iter (fun l -> go (Aig.node_of l)) (Aig.outputs aig);
  reach

let test_incremental_resim () =
  let rng = Rng.create 0x1ec5 in
  for _ = 1 to 20 do
    let aig = Helpers.random_aig ~inputs:8 ~ands:60 ~outputs:4 rng in
    let bank = Prefilter.create_bank () in
    let st = Prefilter.attach bank aig in
    (* Pick a live AND node and bypass it with one of its fanins — a
       function-changing edit wherever the node was observable. *)
    let victim = ref None in
    for v = Aig.num_nodes aig - 1 downto 1 do
      if !victim = None && Aig.is_and aig v && not (Aig.is_dead aig v) then
        victim := Some v
    done;
    match !victim with
    | None -> ()
    | Some v ->
      Prefilter.note_edit st v;
      Aig.replace aig v (Aig.fanin0 aig v);
      let fresh = Prefilter.attach bank aig in
      let reach = output_reachable aig in
      for n = 0 to Aig.num_nodes aig - 1 do
        if (not (Aig.is_dead aig n)) && Hashtbl.mem reach n then
          for w = 0 to Prefilter.words st - 1 do
            if Prefilter.value st n w <> Prefilter.value fresh n w then
              Alcotest.failf "stale value at node %d word %d after edit" n w
          done
      done
  done

(* --- off vs. on: bit-identical QoR for every engine --- *)

(* The four Boolean engines over their native APIs: [run prefilter
   aig] optimizes a copy under the pattern bank [prefilter], and the
   named counter holds its size gain (the kernel's is the size delta).
   Gradient runs at budget 12, the flow's low-effort budget; every
   other knob is the engine's default. *)
let engines =
  let module C = Sbm_core in
  [
    ( "diff",
      Some "diff.gain",
      fun prefilter aig ->
        C.Diff_resub.run ~config:{ C.Diff_resub.default_config with prefilter } aig );
    ( "mspf",
      Some "mspf.gain",
      fun prefilter aig -> C.Mspf.run ~config:{ C.Mspf.default_config with prefilter } aig );
    ("kernel", None, fun _ aig -> C.Hetero_kernel.run aig);
    ( "gradient",
      Some "gradient.gain",
      fun prefilter aig ->
        C.Gradient.run ~config:{ C.Gradient.default_config with budget = 12; prefilter } aig );
  ]

(* One engine run: the output, its gain and the run's registry
   deltas. *)
let run_engine (gain, run) bank input =
  let out, totals = Helpers.with_totals (fun _ -> run bank input) in
  let gain =
    match gain with
    | Some counter -> Helpers.count totals counter
    | None -> Aig.size input - Aig.size out
  in
  (out, gain, totals)

(* The filter is accept-preserving, so each engine must produce the
   same network and gain with filtering off or on, and a run without a
   bank bumps no [prefilter.*] counter. This is the per-engine identity
   property the API contract promises. *)
let engine_identity bench =
  let input = Epfl.generate bench in
  List.iter
    (fun (name, gain, engine) ->
      let run prefilter =
        let bank = if prefilter then Some (Prefilter.create_bank ()) else None in
        let out, gain, totals = run_engine (gain, engine) bank input in
        (Sbm_aig.Aiger.write out, gain, totals)
      in
      let label what = Printf.sprintf "%s/%s: %s" (Epfl.name bench) name what in
      let off_text, off_gain, off_totals = run false in
      let on_text, on_gain, _ = run true in
      Alcotest.(check string) (label "network") off_text on_text;
      Alcotest.(check int) (label "gain") off_gain on_gain;
      Alcotest.(check (list string))
        (label "no prefilter counter without a bank")
        []
        (List.filter_map
           (fun (k, _) ->
             if String.starts_with ~prefix:"prefilter." k then Some k else None)
           off_totals))
    engines

(* Every engine's output on ctrl after the baseline script, under the
   flow's effective parameters (a prefilter bank, gradient budget 12,
   kernel partition 100, BDD budget 200 000): structural hash and gain.
   A drift in any engine default shows here. *)
let test_engines_pinned () =
  let input = Sbm_core.Flow.baseline (Epfl.generate Epfl.Ctrl) in
  let pinned =
    [
      ("diff", (5912184018341111655L, 0));
      ("mspf", (7414612233566305995L, 2));
      ("kernel", (-682017063442755032L, -3));
      ("gradient", (4527574710208072628L, 0));
    ]
  in
  List.iter
    (fun (name, gain, run) ->
      let bank = Some (Prefilter.create_bank ()) in
      let out, gain, _ = run_engine (gain, run) bank input in
      let hash, expected_gain = List.assoc name pinned in
      Alcotest.(check int64) (name ^ ": hash") hash (Aig.fold_hash out);
      Alcotest.(check int) (name ^ ": gain") expected_gain gain)
    engines

let test_engine_identity_ctrl () = engine_identity Epfl.Ctrl
let test_engine_identity_cavlc () = engine_identity Epfl.Cavlc
let test_engine_identity_router () = engine_identity Epfl.Router

(* The full flow: sbm-low with and without the prefilter must agree
   bit for bit (the SAT counterexample feedback only changes what is
   filtered, never what is accepted). *)
let test_flow_identity () =
  let input = Epfl.generate Epfl.Ctrl in
  let out prefilter =
    Sbm_aig.Aiger.write
      (Sbm_core.Flow.run ~prefilter (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) input)
  in
  Alcotest.(check string) "ctrl: sbm-low off == on" (out false) (out true)

let suite =
  [
    Alcotest.test_case "verdicts: sound vs exhaustive truth tables." `Quick
      test_soundness_exhaustive;
    Alcotest.test_case "verdicts: masked matches reference." `Quick
      test_masked_reference;
    Alcotest.test_case "bank: cex refinement packs patterns." `Quick
      test_refine_patterns;
    Alcotest.test_case "store: small inputs simulate exhaustively." `Quick
      test_exhaustive_small_inputs;
    Alcotest.test_case "bank: refinement kills a false positive." `Quick
      test_refine_kills_false_positive;
    Alcotest.test_case "store: incremental resim equals fresh attach." `Quick
      test_incremental_resim;
    Alcotest.test_case "engines: outputs pinned (ctrl after baseline)." `Quick
      test_engines_pinned;
    Alcotest.test_case "engines: off==on (ctrl)." `Quick
      test_engine_identity_ctrl;
    Alcotest.test_case "engines: off==on (cavlc)." `Slow
      test_engine_identity_cavlc;
    Alcotest.test_case "engines: off==on (router)." `Quick
      test_engine_identity_router;
    Alcotest.test_case "flow: sbm-low off==on (ctrl)." `Slow test_flow_identity;
  ]
