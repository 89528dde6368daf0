module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module M = Sbm_obs.Metrics

(* "gain" is the bare counter the in-place baseline steps have always
   reported (no engine prefix — historical name, kept for snapshot
   compatibility). *)
let m_gain =
  M.counter ~engine:"flow" ~unit_:"nodes" "gain"
    "AIG nodes saved by in-place algebraic steps (rewrite/refactor/resub)"

let m_dead_node_pct =
  M.gauge ~engine:"aig" ~unit_:"pct" "aig.dead_node_pct"
    "dead (unreferenced) AIG node slots at the last pass boundary"

let m_arena_capacity =
  M.gauge ~engine:"aig" ~unit_:"words" "aig.arena_capacity"
    "allocated words in the packed adjacency arenas (fanout + output-use \
     lists) at the last pass boundary, before compaction"

let m_arena_live_pct =
  M.gauge ~engine:"aig" ~unit_:"pct" "aig.arena_live_pct"
    "share of adjacency-arena words holding live list entries at the last \
     pass boundary, before compaction (the rest is growth slack and \
     relocation leaks)"

(* Percentage of allocated node slots that are dead. [num_nodes] is
   all allocated slots, [topo] the live inputs + ANDs; both are
   deterministic, so ledger rows built from this are too. *)
let dead_node_pct aig =
  let total = Aig.num_nodes aig in
  if total = 0 then 0
  else
    let live = Array.length (Aig.topo aig) in
    max 0 (100 * (total - live) / total)

(* LUT-6 probe for the per-pass ledger, installed by the CLI (the
   mapper lives above this library in the dependency order). When
   unset, ledger rows carry -1 for luts/levels. *)
let ledger_qor_probe : (Aig.t -> int * int) option ref = ref None

type effort = Low | High

type script = Baseline | Sbm of effort | Gradient | Diff | Mspf

let all = [ Baseline; Sbm High; Sbm Low; Gradient; Diff; Mspf ]

let to_string = function
  | Baseline -> "baseline"
  | Sbm High -> "sbm"
  | Sbm Low -> "sbm-low"
  | Gradient -> "gradient"
  | Diff -> "diff"
  | Mspf -> "mspf"

let of_string = function
  | "baseline" -> Some Baseline
  | "sbm" -> Some (Sbm High)
  | "sbm-low" -> Some (Sbm Low)
  | "gradient" -> Some Gradient
  | "diff" -> Some Diff
  | "mspf" -> Some Mspf
  | _ -> None

let keep_better aig candidate =
  if Aig.size candidate <= Aig.size aig then candidate else aig

(* Provenance tag of a scripted pass, by name. Container passes
   (baseline, iteration-N) map to Other: the fine-grained steps inside
   them re-stamp with their own tag. *)
let origin_of_pass name =
  let module O = Aig.Origin in
  let prefix p = String.length name >= String.length p
                 && String.sub name 0 (String.length p) = p
  in
  let kind =
    if prefix "rewrite" then O.Rewrite
    else if prefix "refactor" then O.Refactor
    else if prefix "resub" then O.Resub
    else if name = "balance" then O.Balance
    else if name = "hetero-kernel" || prefix "eliminate" then O.Kernel
    else if prefix "mspf" then O.Mspf
    else if name = "boolean-difference" then O.Diff
    else if name = "sat-sweep" then O.Sweep
    else O.Other
  in
  O.make ~pass:name kind

(* Failure injection for crash-dump testing: die inside the Nth
   scripted pass, after its span has opened, so the post-mortem shows
   the pass on the open span stack. Counts down, one-shot;
   [SBM_FAIL_AFTER=N] seeds it once per process, for driving a real
   run to a crash. *)
let inject_failure_after : int option ref =
  ref (Option.bind (Sys.getenv_opt "SBM_FAIL_AFTER") int_of_string_opt)

let check_injected_failure name =
  match !inject_failure_after with
  | Some n when n <= 1 ->
    inject_failure_after := None;
    failwith (Printf.sprintf "injected failure in pass '%s'" name)
  | Some n -> inject_failure_after := Some (n - 1)
  | None -> ()

(* Wrap one scripted pass in a pass span recording wall time and the
   size/depth delta. Measurement (Aig.depth is O(n)) only happens when
   the span is live; with observability off this is a direct call.
   Every node the pass builds is stamped with the pass's origin. The
   pass-boundary consumers (the record stream's views, the ledger)
   hang off the span's open and close. A pass that raises stays on the
   span stack — exactly what the post-mortem dump should show. *)
let pass obs name f aig =
  Aig.set_origin aig (origin_of_pass name);
  if not (Obs.enabled obs) then begin
    check_injected_failure name;
    let aig = f Obs.null aig in
    Aig.compact_arenas aig;
    aig
  end
  else begin
    let sp = Obs.pass ~size:(Aig.size aig) ~depth:(Aig.depth aig) obs name in
    check_injected_failure name;
    let aig = f sp aig in
    let dead = dead_node_pct aig in
    M.set m_dead_node_pct dead;
    (* Arena occupancy is sampled before the boundary compaction, so
       the gauge shows how much slack the pass itself produced. *)
    let acap = Aig.arena_capacity_words aig in
    M.set m_arena_capacity acap;
    M.set m_arena_live_pct
      (if acap = 0 then 100 else 100 * Aig.arena_live_words aig / acap);
    Aig.compact_arenas aig;
    Obs.close_pass ~size:(Aig.size aig) ~depth:(Aig.depth aig)
      ~dead_node_pct:dead
      ~structure:(fun () -> Aig.fold_hash aig)
      ~qor:(fun () ->
        match !ledger_qor_probe with Some probe -> probe aig | None -> (-1, -1))
      sp;
    aig
  end

(* The pass-boundary consumers read the span stack, so a flow they
   observe always runs under a span, even when the caller passed
   none. *)
let observed obs name f =
  if Obs.enabled obs || not (Obs.observing ()) then f obs
  else begin
    let root = Obs.root (Obs.create ()) name in
    let r = f root in
    Obs.close root;
    r
  end

(* Like [pass], but skips the O(n) depth measurement — used for the
   fine-grained steps inside [baseline]. *)
let step obs name f aig =
  Aig.set_origin aig (origin_of_pass name);
  if not (Obs.enabled obs) then f aig
  else begin
    let sp = Obs.span ~size:(Aig.size aig) obs name in
    let aig = f aig in
    Obs.close ~size:(Aig.size aig) sp;
    aig
  end

(* resyn2rs-like algebraic/AIG script. *)
let baseline ?(obs = Obs.null) aig0 =
  let aig = ref (fst (Aig.compact aig0)) in
  let keep name f = aig := step obs name (fun a -> keep_better a (f a)) !aig in
  let in_place name f =
    aig :=
      step obs name
        (fun a ->
          M.add m_gain (f a);
          a)
        !aig
  in
  keep "balance" Sbm_aig.Balance.run;
  in_place "rewrite" (fun a -> Sbm_aig.Rewrite.run a);
  in_place "refactor" (fun a -> Sbm_aig.Refactor.run ~max_leaves:8 a);
  keep "balance" Sbm_aig.Balance.run;
  in_place "resub" (fun a -> Sbm_aig.Resub.run ~max_leaves:8 ~max_divisors:30 a);
  in_place "rewrite" (fun a -> Sbm_aig.Rewrite.run a);
  in_place "rewrite -z" (fun a -> Sbm_aig.Rewrite.run ~zero_gain:true a);
  keep "balance" Sbm_aig.Balance.run;
  in_place "resub -h" (fun a -> Sbm_aig.Resub.run ~max_leaves:10 ~max_divisors:40 a);
  in_place "refactor -z" (fun a -> Sbm_aig.Refactor.run ~zero_gain:true ~max_leaves:10 a);
  in_place "rewrite -z" (fun a -> Sbm_aig.Rewrite.run ~zero_gain:true a);
  keep "balance" Sbm_aig.Balance.run;
  fst (Aig.compact !aig)

(* The engine configuration of one flow run: a single pattern bank
   shared by every Boolean-engine pass (and both SBM iterations), so
   counterexamples folded back by the SAT passes refine every later
   pass's filtering. [None] = filtering off. *)
let engine_config ~prefilter =
  if prefilter then begin
    let bank = Prefilter.create_bank () in
    (* The audit trail's bank/seeds components read the live bank, so
       counterexamples folded back mid-run show up at the next
       boundary. Harmless while the trail is disabled (the closure is
       stored, never invoked). *)
    Obs.Stream.set_bank_source
      (Some
         (fun () -> (Prefilter.bank_digest bank, Prefilter.bank_seeds bank)));
    Some bank
  end
  else begin
    Obs.Stream.set_bank_source None;
    None
  end

let sbm_iteration ~obs ~explain ~effort ~prefilter aig0 =
  let aig = ref aig0 in
  let checkpoint name =
    Logs.debug (fun m -> m "flow: %s -> size %d" name (Aig.size !aig))
  in
  let run_pass name f =
    aig := pass obs name f !aig;
    checkpoint name
  in
  (* 1. AIG optimization: state-of-the-art script + gradient engine. *)
  run_pass "baseline" (fun sp a -> baseline ~obs:sp a);
  (* The paper's cost budget (100) counts partition-local moves; our
     moves sweep the whole network, so the flow uses a smaller global
     budget with the same semantics. *)
  let budget = match effort with Low -> 12 | High -> 30 in
  run_pass "gradient" (fun sp a ->
      keep_better a
        (Gradient.optimize ~obs:sp ?explain
           ~config:{ Gradient.default_config with budget; prefilter }
           a));
  (* 2. Heterogeneous elimination for kernel extraction on
     medium-large partitions. *)
  run_pass "hetero-kernel" (fun _ a -> keep_better a (Hetero_kernel.run a));
  (* 3. Enhanced MSPF computation on medium partitions with BDDs. *)
  run_pass "mspf" (fun _ a ->
      ignore (Mspf.optimize ~config:{ Mspf.default_config with prefilter } a);
      fst (Aig.compact a));
  (* 4. Collapse and Boolean decomposition on reconvergent MFFCs is
     Refactor.run, which the baseline script (refactor, refactor -z)
     and the gradient's refactor moves already run. *)
  (* 5. Boolean-difference-based optimization, to unveil hard-to-find
     rewrites and escape local minima. *)
  run_pass "boolean-difference" (fun _ a ->
      ignore
        (Diff_resub.optimize
           ~config:
             {
               Diff_resub.default_config with
               accept_zero = (effort = High);
               prefilter;
             }
           a);
      fst (Aig.compact a));
  (* 6. SAT sweeping and redundancy removal. Disproved candidate
     equivalences flow back into the pattern bank so the engines of
     the next iteration never chase the same false positive. *)
  run_pass "sat-sweep" (fun _ a ->
      let refinements0 =
        match prefilter with Some b -> Prefilter.refinements b | None -> 0
      in
      let on_cex = Option.map (fun b bits -> Prefilter.refine b bits) prefilter in
      let swept, _ = Sbm_sat.Sweep.run ?on_cex a in
      let a = keep_better a swept in
      ignore
        (Sbm_sat.Redundancy.run
           ~max_candidates:(match effort with Low -> 50 | High -> 200)
           ?on_cex a);
      Option.iter
        (fun b ->
          M.add Prefilter.m_cex_refinements (Prefilter.refinements b - refinements0))
        prefilter;
      fst (Aig.compact a));
  !aig

let iteration_pass obs explain name effort prefilter aig =
  pass obs name
    (fun sp a -> sbm_iteration ~obs:sp ~explain ~effort ~prefilter a)
    aig

let sbm_once ?(obs = Obs.null) ?explain ?(prefilter = true) aig0 =
  observed obs (to_string (Sbm Low)) @@ fun obs ->
  let aig, _ = Aig.compact aig0 in
  let bank = engine_config ~prefilter in
  iteration_pass obs explain "iteration-1" Low bank aig

let sbm ?(obs = Obs.null) ?explain ?(effort = High) ?(prefilter = true) aig0 =
  observed obs (to_string (Sbm effort)) @@ fun obs ->
  (* The optimization flow is iterated twice, with different
     efforts (Section V-A). One bank serves both iterations:
     counterexamples found by iteration-1's SAT passes sharpen
     iteration-2's filtering. *)
  let aig, _ = Aig.compact aig0 in
  let bank = engine_config ~prefilter in
  let aig = iteration_pass obs explain "iteration-1" Low bank aig in
  iteration_pass obs explain "iteration-2" effort bank aig

let run ?(obs = Obs.null) ?explain ?(prefilter = true) script aig =
  observed obs (to_string script) @@ fun obs ->
  let bank () = engine_config ~prefilter in
  match script with
  | Baseline ->
    (* No engine config, hence no bank: make sure a source installed
       by a previous run in this process doesn't leak into the trail. *)
    Obs.Stream.set_bank_source None;
    pass obs "baseline" (fun sp a -> baseline ~obs:sp a) aig
  | Sbm effort -> sbm ~obs ?explain ~effort ~prefilter aig
  | Gradient ->
    let prefilter = bank () in
    pass obs "gradient"
      (fun sp a ->
        Gradient.run ~obs:sp ?explain
          ~config:{ Gradient.default_config with prefilter }
          a)
      aig
  | Diff ->
    let prefilter = bank () in
    pass obs "boolean-difference"
      (fun _ a -> Diff_resub.run ~config:{ Diff_resub.default_config with prefilter } a)
      aig
  | Mspf ->
    let prefilter = bank () in
    pass obs "mspf"
      (fun _ a -> Mspf.run ~config:{ Mspf.default_config with prefilter } a)
      aig
