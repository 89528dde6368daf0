(* The per-pass resource ledger: one row per pass, built at its close,
   with nested-path construction, rows tied to the audit trail's pass
   links, the stable JSON projection, the JSONL history
   round-trip (including torn-final-line tolerance, which also covers
   the `sbm top` reader), and per-pass diff verdict classification
   with its strict alignment contract. *)

module Aig = Sbm_aig.Aig
module Epfl = Sbm_epfl.Epfl
module Obs = Sbm_obs
module Ledger = Sbm_obs.Ledger
module Snapshot = Sbm_obs.Snapshot
module Report = Sbm_report.Report
module History = Sbm_report.History
module Status = Sbm_obs.Status
module Json = Sbm_report.Json

let entry ?(counters = []) ?(wall_ms = 100.0) ?(passes = []) bench size depth
    luts levels =
  {
    Snapshot.bench;
    size_before = -1;
    qor = { Snapshot.size; depth; luts; levels };
    cec = None;
    wall_ms;
    counters;
    passes;
  }

let row ?(counters = []) ?(size = 100) ?(luts = -1) ?(levels = -1)
    ?(wall_ns = 1_000_000L) ?(fingerprint = 0L) path index =
  {
    Ledger.path;
    index;
    size_before = size + 10;
    size_after = size;
    depth_before = 10;
    depth_after = 9;
    luts;
    levels;
    fingerprint;
    wall_ns;
    counters;
    minor_words = 1234.0;
    major_words = 56.0;
    heap_words = 100_000;
    unique_load_pct = 40;
    cache_load_pct = 25;
    dead_node_pct = 3;
  }

(* --- frame bookkeeping --- *)

(* Each closed pass appends its ledger row; paths are the pass
   ancestors, skipping plain spans. *)
let run_passes () =
  let trace = Obs.create () in
  let root = Obs.root trace "flow" in
  let pass parent name = Obs.pass ~size:10 ~depth:4 parent name in
  let close sp = Obs.close_pass ~size:9 ~depth:4 sp in
  let it = pass root "iteration-1" in
  close (pass it "mspf");
  let step = Obs.span it "step" in
  close (pass step "rewrite");
  Obs.close step;
  close it;
  (* A pass still open (a crashed one) has no row. *)
  ignore (pass root "unfinished");
  Obs.close root;
  trace

let test_ledger_paths () =
  let rows = Obs.ledger (run_passes ()) in
  Alcotest.(check (list string))
    "nested slash-joined paths, completion order"
    [ "iteration-1/mspf"; "iteration-1/rewrite"; "iteration-1" ]
    (List.map (fun (r : Ledger.row) -> r.Ledger.path) rows);
  Alcotest.(check (list int))
    "indices follow completion order" [ 0; 1; 2 ]
    (List.map (fun (r : Ledger.row) -> r.Ledger.index) rows);
  Alcotest.(check (list (pair int int)))
    "sizes come from the span" [ (10, 9); (10, 9); (10, 9) ]
    (List.map
       (fun (r : Ledger.row) -> (r.Ledger.size_before, r.Ledger.size_after))
       rows);
  Alcotest.(check (list int)) "no probe: luts -1" [ -1; -1; -1 ]
    (List.map (fun (r : Ledger.row) -> r.Ledger.luts) rows);
  (* Each trace is its own ledger. *)
  Alcotest.(check int) "a fresh trace has no rows" 0
    (List.length (Obs.ledger (Obs.create ())))

let test_stable_projection () =
  let r = row ~counters:[ ("bdd.cache_hits", 7) ] "mspf" 0 in
  let full = Json.parse (Ledger.row_to_json r) in
  let stable = Json.parse (Ledger.row_to_json ~stable:true r) in
  let has j key = Json.member key j <> None in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in full row") true (has full key);
      Alcotest.(check bool)
        (key ^ " omitted from stable projection")
        false (has stable key))
    [ "wall_ns"; "minor_words"; "major_words"; "heap_words" ];
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " survives projection") true (has stable key))
    [
      "path"; "index"; "size_before"; "size_after"; "counters";
      "unique_load_pct"; "cache_load_pct"; "dead_node_pct";
    ]

(* --- history JSONL round-trip --- *)

let test_history_round_trip () =
  let passes =
    [ row ~counters:[ ("gain", 30) ] "baseline" 0; row "iteration-1" 1 ]
  in
  let snapshot =
    Snapshot.make ~label:"flow=sbm-low" ~seed:7
      [ entry ~counters:[ ("gain", 30) ] ~passes "ctrl" 52 10 20 3 ]
  in
  let r1 =
    { History.t = 1754000000.0; commit = "abc123def"; flow = "sbm-low";
      jobs = 1; snapshot }
  in
  let r2 = { r1 with History.t = 1754100000.0; commit = "fedcba987"; jobs = 4 } in
  let path = Filename.temp_file "sbm_ledger" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match History.append_run ~path r1 with
      | Error msg -> Alcotest.failf "append failed: %s" msg
      | Ok () -> ());
      (match History.append_run ~path r2 with
      | Error msg -> Alcotest.failf "append failed: %s" msg
      | Ok () -> ());
      (* A run killed mid-append leaves a torn final line; readers must
         keep the complete records. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"schema\":1,\"t\":175420";
      close_out oc;
      match History.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok runs ->
        Alcotest.(check int) "torn line skipped, two records" 2
          (List.length runs);
        (match runs with
        | [ a; b ] ->
          Alcotest.(check string) "commit" "abc123def" a.History.commit;
          Alcotest.(check int) "jobs" 4 b.History.jobs;
          Alcotest.(check bool) "snapshot round-trips with passes" true
            (a.History.snapshot = snapshot)
        | _ -> Alcotest.fail "unreachable");
        (* The trend table renders and flags nothing on identical runs. *)
        let t = History.table ~metric:"size" runs in
        Alcotest.(check bool) "table mentions the bench" true
          (String.length t > 0)
        ;
        ignore (History.table ~bench:"ctrl" ~metric:"wall_ms" runs))

(* --- sbm top reader: torn final line --- *)

let test_live_torn_line () =
  let path = Filename.temp_file "sbm_status" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "{\"seq\":0,\"t_ms\":10.0,\"pass\":\"mspf\",\"counters\":{\"a\":1}}\n";
      output_string oc
        "{\"seq\":1,\"t_ms\":20.0,\"pass\":\"mspf\",\"finished\":true}\n";
      (* A truncated final line, as left by a killed writer. *)
      output_string oc "{\"seq\":2,\"t_ms\":30.0,\"pa";
      close_out oc;
      match Status.load path with
      | Error msg -> Alcotest.failf "torn line crashed the reader: %s" msg
      | Ok samples ->
        Alcotest.(check int) "complete samples kept" 2 (List.length samples);
        let last = List.nth samples 1 in
        Alcotest.(check int) "last complete sample" 1 last.Status.seq;
        Alcotest.(check bool) "finished flag read" true last.Status.finished)

(* --- per-pass diff classification --- *)

let snap_with benches = Snapshot.make benches

let test_per_pass_verdicts () =
  let old_passes =
    [ row ~size:100 "baseline" 0;
      row ~size:90 ~counters:[ ("bdd.cache_hits", 100) ] "iteration-1/mspf" 1 ]
  in
  let new_ok = [ row ~size:100 "baseline" 0; row ~size:90 "iteration-1/mspf" 1 ] in
  let new_bad =
    [ row ~size:100 "baseline" 0;
      row ~size:99 ~counters:[ ("bdd.cache_hits", 160) ] "iteration-1/mspf" 1 ]
  in
  let old_snap = snap_with [ entry ~passes:old_passes "ctrl" 90 9 20 3 ] in
  (* Aligned and identical: Unchanged. *)
  let d =
    Report.diff_passes old_snap
      (snap_with [ entry ~passes:new_ok "ctrl" 90 9 20 3 ])
  in
  Alcotest.(check bool) "identical passes unchanged" true
    (d.Report.verdict = Report.Unchanged);
  Alcotest.(check int) "clean exit" 0 (Report.passes_exit_code d);
  (* A size regression inside one pass is localized to that pass and
     carries its counter deltas. *)
  let d =
    Report.diff_passes old_snap
      (snap_with [ entry ~passes:new_bad "ctrl" 99 9 20 3 ])
  in
  Alcotest.(check bool) "overall regressed" true
    (d.Report.verdict = Report.Regressed);
  (match d.Report.benches with
  | [ b ] ->
    let bad =
      List.find (fun (p : Report.pass_row) -> p.Report.verdict = Report.Regressed)
        b.Report.rows
    in
    Alcotest.(check string) "regressing pass named" "iteration-1/mspf"
      bad.Report.path;
    Alcotest.(check (list (pair string (pair int int))))
      "per-pass counter delta surfaces"
      [ ("bdd.cache_hits", (100, 160)) ]
      (List.map
         (fun (c : Report.counter_delta) ->
           (c.Report.counter, (c.Report.old_count, c.Report.new_count)))
         bad.Report.counter_deltas);
    let baseline =
      List.find (fun (p : Report.pass_row) -> p.Report.path = "baseline")
        b.Report.rows
    in
    Alcotest.(check bool) "untouched pass unchanged" true
      (baseline.Report.verdict = Report.Unchanged)
  | l -> Alcotest.failf "expected 1 bench, got %d" (List.length l));
  Alcotest.(check int) "regression gates" 1 (Report.passes_exit_code d);
  ignore (Fmt.str "%a" Report.pp_passes d);
  ignore (Json.parse (Report.passes_to_json d))

let test_per_pass_alignment () =
  let old_passes = [ row "baseline" 0; row "mspf" 1 ] in
  let old_snap = snap_with [ entry ~passes:old_passes "ctrl" 90 9 20 3 ] in
  let verdict_of new_passes =
    let d =
      Report.diff_passes old_snap
        (snap_with [ entry ~passes:new_passes "ctrl" 90 9 20 3 ])
    in
    match d.Report.benches with
    | [ b ] -> (b.Report.verdict, b.Report.note)
    | _ -> Alcotest.fail "expected 1 bench"
  in
  (* Renamed pass: Regressed, never silently realigned. *)
  let v, note = verdict_of [ row "baseline" 0; row "cspf" 1 ] in
  Alcotest.(check bool) "renamed pass regresses" true (v = Report.Regressed);
  Alcotest.(check bool) "mismatch note present" true (note <> None);
  (* Different lengths: Regressed. *)
  let v, _ = verdict_of [ row "baseline" 0 ] in
  Alcotest.(check bool) "shorter sequence regresses" true (v = Report.Regressed);
  (* Rows missing from the new snapshot entirely: Regressed. *)
  let v, _ = verdict_of [] in
  Alcotest.(check bool) "missing ledger regresses" true (v = Report.Regressed);
  (* Old snapshot predating the ledger: tolerated as Unchanged. *)
  let d =
    Report.diff_passes
      (snap_with [ entry "ctrl" 90 9 20 3 ])
      (snap_with [ entry ~passes:old_passes "ctrl" 90 9 20 3 ])
  in
  (match d.Report.benches with
  | [ b ] ->
    Alcotest.(check bool) "pre-ledger old snapshot unchanged" true
      (b.Report.verdict = Report.Unchanged);
    Alcotest.(check bool) "predates note" true (b.Report.note <> None)
  | _ -> Alcotest.fail "expected 1 bench");
  Alcotest.(check int) "pre-ledger passes the gate" 0 (Report.passes_exit_code d)

let test_per_pass_ignore_time () =
  let mk wall_ns = [ row ~wall_ns "baseline" 0 ] in
  let old_snap = snap_with [ entry ~passes:(mk 1_000_000L) "ctrl" 90 9 20 3 ] in
  let new_snap =
    snap_with [ entry ~passes:(mk 900_000_000L) "ctrl" 90 9 20 3 ]
  in
  let gated = Report.diff_passes old_snap new_snap in
  Alcotest.(check bool) "pass wall-time blowup gates" true
    (gated.Report.verdict = Report.Regressed);
  let ungated = Report.diff_passes ~ignore_time:true old_snap new_snap in
  Alcotest.(check bool) "ignore-time drops wall verdicts" true
    (ungated.Report.verdict = Report.Unchanged);
  (match ungated.Report.benches with
  | [ b ] ->
    List.iter
      (fun (p : Report.pass_row) ->
        List.iter
          (fun (dl : Report.delta) ->
            Alcotest.(check bool) "no wall_ms delta rows" true
              (dl.Report.metric <> "wall_ms"))
          p.Report.deltas)
      b.Report.rows
  | _ -> Alcotest.fail "expected 1 bench")

(* The ledger and the audit trail read the same pass boundaries: on a
   traced run with the trail on, each row's (path, fingerprint) is the
   matching pass link's (label, chain), in order. *)
let test_rows_follow_trail () =
  let module S = Obs.Stream in
  Fun.protect ~finally:S.close (fun () ->
      S.enable_trail ();
      let aig = Epfl.generate Epfl.Ctrl in
      let trace = Obs.create () in
      let root = Obs.root trace "ctrl" in
      ignore (Sbm_core.Flow.run ~obs:root (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) aig);
      Obs.close root;
      let rows = Obs.ledger trace in
      let hex = Printf.sprintf "%016Lx" in
      Alcotest.(check bool) "the flow produced rows" true (rows <> []);
      Alcotest.(check (list (pair string string)))
        "rows are the trail's pass links"
        (List.filter_map
           (fun (l : S.link) ->
             if l.S.boundary = S.Pass then Some (l.S.label, hex l.S.chain)
             else None)
           (S.trail ()))
        (List.map
           (fun (r : Ledger.row) -> (r.Ledger.path, hex r.Ledger.fingerprint))
           rows);
      Alcotest.(check (list int))
        "index is position"
        (List.init (List.length rows) Fun.id)
        (List.map (fun (r : Ledger.row) -> r.Ledger.index) rows))

let suite =
  [
    Alcotest.test_case "ledger: nested paths and lifecycle." `Quick
      test_ledger_paths;
    Alcotest.test_case "ledger: stable JSON projection." `Quick
      test_stable_projection;
    Alcotest.test_case "history: JSONL round-trip, torn line skipped." `Quick
      test_history_round_trip;
    Alcotest.test_case "top: torn final status line skipped." `Quick
      test_live_torn_line;
    Alcotest.test_case "per-pass diff: verdicts and localization." `Quick
      test_per_pass_verdicts;
    Alcotest.test_case "per-pass diff: alignment contract." `Quick
      test_per_pass_alignment;
    Alcotest.test_case "per-pass diff: ignore-time." `Quick
      test_per_pass_ignore_time;
    Alcotest.test_case "ledger: rows follow the trail's pass links." `Quick
      test_rows_follow_trail;
  ]
