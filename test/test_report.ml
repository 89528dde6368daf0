(* The regression observatory: snapshot round-trips (including
   reading documents older than the current schema version), diff
   classification against tolerance thresholds, the exit-code gate,
   and the gradient engine's explain stream. *)

module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module Snapshot = Sbm_obs.Snapshot
module Report = Sbm_report.Report
module Json = Sbm_report.Json
module Gradient = Sbm_core.Gradient
module Rng = Sbm_util.Rng

let entry ?(counters = []) ?(wall_ms = 100.0) ?(passes = []) ?(size_before = -1)
    bench size depth luts levels =
  {
    Snapshot.bench;
    size_before;
    qor = { Snapshot.size; depth; luts; levels };
    cec = None;
    wall_ms;
    counters;
    passes;
  }

(* --- snapshot round-trip --- *)

let test_snapshot_round_trip () =
  let snapshot =
    Snapshot.make ~label:"flow=sbm-low \"quoted\"" ~seed:42
      [
        entry ~counters:[ ("gradient.moves_tried", 12); ("sat.conflicts", 3) ]
          ~wall_ms:12.5 ~size_before:106 "ctrl" 52 10 20 3;
        (* No size_before: the key is omitted and must parse back as
           the -1 "unrecorded" sentinel. *)
        entry ~wall_ms:640.125 "router" 105 10 30 3;
      ]
  in
  match Snapshot.of_json (Snapshot.to_json snapshot) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok parsed ->
    Alcotest.(check int) "version" Snapshot.current_version parsed.Snapshot.version;
    Alcotest.(check string) "label with quotes" "flow=sbm-low \"quoted\""
      parsed.Snapshot.label;
    Alcotest.(check int) "seed" 42 parsed.Snapshot.seed;
    Alcotest.(check bool) "entries identical" true
      (parsed.Snapshot.entries = snapshot.Snapshot.entries)

let test_snapshot_file_round_trip () =
  let snapshot = Snapshot.make ~label:"t" [ entry "dec" 503 6 280 2 ] in
  let path = Filename.temp_file "sbm_snapshot" ".json" in
  Snapshot.write snapshot path;
  let loaded = Snapshot.load path in
  Sys.remove path;
  match loaded with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok parsed ->
    Alcotest.(check bool) "file round trip" true (parsed = snapshot)

let test_snapshot_version_tolerance () =
  (* A version-0 document from a hypothetical older writer: no label,
     no seed, no counters. Readers must accept it with defaults. *)
  let v0 =
    "{\"version\":0,\"entries\":[{\"bench\":\"ctrl\",\"size\":52,\"depth\":10,\"luts\":20,\"levels\":3}]}"
  in
  (match Snapshot.of_json v0 with
  | Error msg -> Alcotest.failf "old version rejected: %s" msg
  | Ok s ->
    Alcotest.(check int) "old version kept" 0 s.Snapshot.version;
    Alcotest.(check string) "label defaults" "" s.Snapshot.label;
    Alcotest.(check int) "seed defaults" 0 s.Snapshot.seed;
    (match s.Snapshot.entries with
    | [ e ] ->
      Alcotest.(check (list (pair string int))) "counters default" []
        e.Snapshot.counters;
      Alcotest.(check (float 1e-9)) "wall_ms defaults" 0.0 e.Snapshot.wall_ms
    | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)));
  (* Documents from the future are rejected, not misread. *)
  (match Snapshot.of_json "{\"version\":99,\"entries\":[]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted");
  (* Garbage is an error, not an exception. *)
  match Snapshot.of_json "{\"version\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted"

(* --- diff classification --- *)

let test_diff_classification () =
  let old_snap =
    Snapshot.make
      [
        entry ~wall_ms:100.0 "improves" 100 10 40 5;
        entry ~wall_ms:100.0 "tolerated" 100 10 40 5;
        entry ~wall_ms:100.0 "regresses" 100 10 40 5;
      ]
  in
  let new_snap =
    Snapshot.make
      [
        entry ~wall_ms:100.0 "improves" 90 10 40 5;
        entry ~wall_ms:100.0 "tolerated" 101 10 40 5;
        entry ~wall_ms:100.0 "regresses" 110 10 40 5;
      ]
  in
  let d =
    Report.diff
      ~tolerance:{ Report.qor_pct = 2.0; time_pct = 25.0 }
      old_snap new_snap
  in
  let row bench =
    List.find (fun (r : Report.row) -> r.Report.bench = bench) d.Report.rows
  in
  let size_delta bench =
    List.find (fun (dl : Report.delta) -> dl.Report.metric = "size")
      (row bench).Report.deltas
  in
  (* The row verdict is the worst delta, so an isolated improvement
     leaves the row Unchanged; the size delta itself is Improved. *)
  Alcotest.(check bool) "improvement" true
    ((size_delta "improves").Report.verdict = Report.Improved);
  Alcotest.(check bool) "improved row does not gate" true
    ((row "improves").Report.verdict = Report.Unchanged);
  Alcotest.(check bool) "within tolerance" true
    ((row "tolerated").Report.verdict = Report.Tolerated);
  Alcotest.(check bool) "regression" true
    ((row "regresses").Report.verdict = Report.Regressed);
  Alcotest.(check bool) "overall regressed" true
    (d.Report.verdict = Report.Regressed);
  Alcotest.(check int) "exit code on regression" 1 (Report.exit_code d);
  (* Without the regressing benchmark the diff passes. *)
  let ok =
    Report.diff
      (Snapshot.make [ entry "a" 100 10 40 5 ])
      (Snapshot.make [ entry "a" 100 10 40 5 ])
  in
  Alcotest.(check int) "exit code when clean" 0 (Report.exit_code ok);
  let improved =
    Report.diff
      (Snapshot.make [ entry "a" 100 10 40 5 ])
      (Snapshot.make [ entry "a" 90 9 38 5 ])
  in
  Alcotest.(check int) "exit code on improvement" 0 (Report.exit_code improved)

let test_diff_time_and_membership () =
  (* Wall time regressions respect their own threshold, and
     [time_pct = infinity] disables time gating entirely. *)
  let old_snap = Snapshot.make [ entry ~wall_ms:100.0 "a" 100 10 40 5 ] in
  let slow = Snapshot.make [ entry ~wall_ms:200.0 "a" 100 10 40 5 ] in
  let gated =
    Report.diff ~tolerance:{ Report.qor_pct = 2.0; time_pct = 25.0 } old_snap slow
  in
  Alcotest.(check int) "time regression gates" 1 (Report.exit_code gated);
  let ungated =
    Report.diff
      ~tolerance:{ Report.qor_pct = 2.0; time_pct = infinity }
      old_snap slow
  in
  Alcotest.(check int) "ignore-time passes" 0 (Report.exit_code ungated);
  (* A benchmark missing from the new snapshot is a regression (the
     gate must not pass because coverage silently shrank). *)
  let dropped = Report.diff old_snap (Snapshot.make []) in
  Alcotest.(check (list string)) "dropped listed" [ "a" ] dropped.Report.only_old;
  Alcotest.(check int) "dropped bench fails the gate" 1 (Report.exit_code dropped);
  (* A new benchmark is informational only. *)
  let added = Report.diff (Snapshot.make []) old_snap in
  Alcotest.(check (list string)) "added listed" [ "a" ] added.Report.only_new;
  Alcotest.(check int) "added bench passes" 0 (Report.exit_code added)

let test_diff_ignore_time () =
  (* --ignore-time drops wall time from the comparison entirely: no
     wall_ms delta row, no time verdict, and pp prints no speedup
     column — QoR-only gating output is stable across machines. *)
  let old_snap = Snapshot.make [ entry ~wall_ms:100.0 "a" 100 10 40 5 ] in
  let slow = Snapshot.make [ entry ~wall_ms:900.0 "a" 100 10 40 5 ] in
  let d = Report.diff ~ignore_time:true old_snap slow in
  Alcotest.(check int) "time ignored, clean exit" 0 (Report.exit_code d);
  (match d.Report.rows with
  | [ r ] ->
    Alcotest.(check (list string))
      "wall_ms delta dropped"
      [ "size"; "depth"; "luts"; "levels" ]
      (List.map (fun (dl : Report.delta) -> dl.Report.metric) r.Report.deltas)
  | l -> Alcotest.failf "expected 1 row, got %d" (List.length l));
  let screen = Fmt.str "%a" Report.pp d in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no speedup column" false (contains "speedup" screen);
  Alcotest.(check bool) "no wall_ms row" false (contains "wall_ms" screen);
  (* With time kept, both appear. *)
  let screen = Fmt.str "%a" Report.pp (Report.diff old_snap slow) in
  Alcotest.(check bool) "speedup column present by default" true
    (contains "speedup" screen)

let test_diff_counter_deltas () =
  let old_snap =
    Snapshot.make
      [ entry ~counters:[ ("sat.conflicts", 10); ("stable", 5) ] "a" 100 10 40 5 ]
  in
  let new_snap =
    Snapshot.make
      [ entry ~counters:[ ("sat.conflicts", 14); ("fresh", 2); ("stable", 5) ]
          "a" 100 10 40 5 ]
  in
  match (Report.diff old_snap new_snap).Report.rows with
  | [ r ] ->
    Alcotest.(check (list (pair string (pair int int))))
      "changed counters only, sorted"
      [ ("fresh", (0, 2)); ("sat.conflicts", (10, 14)) ]
      (List.map
         (fun (c : Report.counter_delta) ->
           (c.Report.counter, (c.Report.old_count, c.Report.new_count)))
         r.Report.counter_deltas)
  | l -> Alcotest.failf "expected 1 row, got %d" (List.length l)

(* --- machine-readable diff (sbm diff --json) --- *)

let test_diff_to_json () =
  let d =
    Report.diff
      (Snapshot.make
         [
           entry ~counters:[ ("sat.conflicts", 10) ] ~wall_ms:100.0 "a" 100 10
             40 5;
           entry "gone" 50 5 20 2;
         ])
      (Snapshot.make
         [
           entry ~counters:[ ("sat.conflicts", 14) ] ~wall_ms:100.0 "a" 110 10
             40 5;
           entry "new" 60 6 22 2;
         ])
  in
  let json = Json.parse (Report.to_json d) in
  Alcotest.(check (option string))
    "overall verdict" (Some "regressed")
    (Json.to_str (Json.member "verdict" json));
  (match Json.to_list (Json.member "rows" json) with
  | [ row ] ->
    Alcotest.(check (option string))
      "bench" (Some "a")
      (Json.to_str (Json.member "bench" row));
    Alcotest.(check (option string))
      "row verdict" (Some "regressed")
      (Json.to_str (Json.member "verdict" row));
    let deltas = Json.to_list (Json.member "deltas" row) in
    Alcotest.(check int) "five metric deltas" 5 (List.length deltas);
    let size_delta =
      List.find
        (fun dl -> Json.to_str (Json.member "metric" dl) = Some "size")
        deltas
    in
    Alcotest.(check (option (float 1e-9)))
      "old size" (Some 100.0)
      (Json.to_float (Json.member "old" size_delta));
    Alcotest.(check (option string))
      "size verdict" (Some "regressed")
      (Json.to_str (Json.member "verdict" size_delta));
    (match Json.to_list (Json.member "counters" row) with
    | [ c ] ->
      Alcotest.(check (option string))
        "counter name" (Some "sat.conflicts")
        (Json.to_str (Json.member "counter" c));
      Alcotest.(check (option int))
        "counter new" (Some 14)
        (Json.to_int (Json.member "new" c))
    | l -> Alcotest.failf "expected 1 counter delta, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 row, got %d" (List.length l));
  let strs field =
    Json.to_list (Json.member field json)
    |> List.filter_map (fun j -> Json.to_str (Some j))
  in
  Alcotest.(check (list string)) "only_old" [ "gone" ] (strs "only_old");
  Alcotest.(check (list string)) "only_new" [ "new" ] (strs "only_new")

(* --- time-attribution profile --- *)

module Profile = Sbm_report.Profile

let test_profile_of_json () =
  (* A hand-written v2 trace: flow (10 ms) with children a (6 ms) and
     b (3 ms) — self times 1 / 6 / 3. *)
  let trace =
    "{\"version\":2,\"totals\":{},\"spans\":[{\"name\":\"flow\",\"wall_ms\":10.0,\
     \"children\":[{\"name\":\"a\",\"wall_ms\":6.0,\"children\":[]},{\"name\":\
     \"b\",\"wall_ms\":3.0,\"children\":[]}]}]}"
  in
  match Profile.of_json trace with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok spans ->
    (match spans with
    | [ flow ] ->
      Alcotest.(check string) "root name" "flow" flow.Obs.name;
      Alcotest.(check (float 1e-9)) "root self" 1.0 (Profile.self_ms flow);
      Alcotest.(check int) "two children" 2 (List.length flow.Obs.children)
    | l -> Alcotest.failf "expected 1 root span, got %d" (List.length l));
    let aggs = Profile.aggregate spans in
    Alcotest.(check (list (pair string (pair (float 1e-9) (float 1e-9)))))
      "aggregation sorted by self time"
      [ ("a", (6.0, 6.0)); ("b", (3.0, 3.0)); ("flow", (10.0, 1.0)) ]
      (List.map
         (fun (a : Profile.agg) ->
           (a.Profile.agg_name, (a.Profile.total_ms, a.Profile.self_ms)))
         aggs);
    (* Self times sum to the run's wall time. *)
    Alcotest.(check (float 1e-9)) "self sums to wall" 10.0
      (List.fold_left (fun acc (a : Profile.agg) -> acc +. a.Profile.self_ms)
         0.0 aggs);
    (* Collapsed stacks: weights in integer self-microseconds. *)
    Alcotest.(check (list string))
      "collapsed stacks"
      [ "flow 1000"; "flow;a 6000"; "flow;b 3000" ]
      (Profile.to_collapsed spans)

let test_profile_real_trace () =
  (* Round-trip a real telemetry trace through the profiler. *)
  let rng = Rng.create 303 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:50 ~outputs:3 rng in
  let trace = Obs.create () in
  let root = Obs.root ~size:(Aig.size aig) trace "flow" in
  let rw = Obs.span root "rewrite" in
  ignore (Sbm_aig.Rewrite.run aig);
  Obs.close ~size:(Aig.size aig) rw;
  Obs.close ~size:(Aig.size aig) root;
  let path = Filename.temp_file "sbm_trace" ".json" in
  Obs.write trace path;
  let loaded = Profile.load path in
  Sys.remove path;
  match loaded with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok spans ->
    let aggs = Profile.aggregate spans in
    Alcotest.(check bool) "flow span present" true
      (List.exists (fun (a : Profile.agg) -> a.Profile.agg_name = "flow") aggs);
    Alcotest.(check bool) "rewrite span present" true
      (List.exists (fun (a : Profile.agg) -> a.Profile.agg_name = "rewrite") aggs);
    List.iter
      (fun (a : Profile.agg) ->
        Alcotest.(check bool)
          (a.Profile.agg_name ^ " self <= total")
          true
          (a.Profile.self_ms <= a.Profile.total_ms +. 1e-9))
      aggs;
    (* The hotspot table renders without raising. *)
    ignore (Fmt.str "%a" (Profile.pp_hotspots ~top:5) spans)

(* --- gradient explain stream --- *)

let test_gradient_explain_stream () =
  let rng = Rng.create 909 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:60 ~outputs:4 rng in
  let events = ref [] in
  let trace = Obs.create () in
  let root = Obs.root trace "gradient" in
  let _optimized =
    Gradient.run ~obs:root
      ~explain:(fun e -> events := e :: !events)
      ~config:{ Gradient.default_config with budget = 20 }
      aig
  in
  Obs.close root;
  let events = List.rev !events in
  let total = Obs.total trace in
  Alcotest.(check bool) "the engine did work" true (total "gradient.moves_tried" > 0);
  (* Exactly one event per attempted move, in order. *)
  Alcotest.(check int) "one event per attempt" (total "gradient.moves_tried")
    (List.length events);
  List.iteri
    (fun i (e : Gradient.event) ->
      Alcotest.(check int) "iterations are sequential" (i + 1) e.Gradient.iteration)
    events;
  (* The waterfall verdict stream matches the run's counters. *)
  Alcotest.(check int) "accepted events = gaining moves"
    (total "gradient.moves_gained")
    (List.length (List.filter (fun (e : Gradient.event) -> e.Gradient.accepted) events));
  Alcotest.(check int) "charged costs sum to budget spent"
    (total "gradient.budget_spent")
    (List.fold_left (fun acc (e : Gradient.event) -> acc + e.Gradient.cost) 0 events);
  (* Waterfall: an accepted move gained, a rejected one did not. *)
  List.iter
    (fun (e : Gradient.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "verdict consistent at iteration %d" e.Gradient.iteration)
        true
        (e.Gradient.accepted = (e.Gradient.gain > 0)))
    events;
  (* The event log agrees with the trace: one move span per attempt,
     named after the move, carrying its gain. *)
  let move_spans =
    match Obs.spans trace with
    | [ r ] ->
      List.map
        (fun (n : Obs.node) ->
          (n.Obs.name, Option.value ~default:(-1) (List.assoc_opt "move.gain" n.Obs.counters)))
        r.Obs.children
    | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)
  in
  Alcotest.(check (list (pair string int)))
    "move log reproduced" move_spans
    (List.map (fun (e : Gradient.event) -> (e.Gradient.move, e.Gradient.gain)) events);
  (* Every record serializes to standalone JSON carrying the verdict. *)
  List.iter
    (fun (e : Gradient.event) ->
      let json = Json.parse (Gradient.event_to_json e) in
      Alcotest.(check (option bool))
        "accepted field" (Some e.Gradient.accepted)
        (Json.to_bool (Json.member "accepted" json));
      Alcotest.(check (option string))
        "move field" (Some e.Gradient.move)
        (Json.to_str (Json.member "move" json));
      Alcotest.(check bool) "gradient field" true
        (Json.to_float (Json.member "gradient" json) <> None))
    events

let test_gradient_explain_parallel () =
  (* Parallel selection: at most one accepted event per round, and
     only a gaining move can be accepted. *)
  let rng = Rng.create 910 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:40 ~outputs:3 rng in
  let events = ref [] in
  let _optimized, totals =
    Helpers.with_totals (fun _ ->
        Gradient.run
          ~explain:(fun e -> events := e :: !events)
          ~config:
            { Gradient.default_config with budget = 12; selection = Gradient.Parallel }
          aig)
  in
  let events = List.rev !events in
  Alcotest.(check int) "one event per attempt"
    (Helpers.count totals "gradient.moves_tried")
    (List.length events);
  let by_round = Hashtbl.create 8 in
  List.iter
    (fun (e : Gradient.event) ->
      if e.Gradient.accepted then begin
        Alcotest.(check bool) "accepted implies gain" true (e.Gradient.gain > 0);
        Alcotest.(check bool)
          (Printf.sprintf "single accept in round %d" e.Gradient.round)
          false
          (Hashtbl.mem by_round e.Gradient.round);
        Hashtbl.add by_round e.Gradient.round ()
      end)
    events;
  Alcotest.(check int) "accepted rounds = gaining moves"
    (Helpers.count totals "gradient.moves_gained")
    (Hashtbl.length by_round)

let suite =
  [
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_round_trip;
    Alcotest.test_case "snapshot file round-trip" `Quick test_snapshot_file_round_trip;
    Alcotest.test_case "snapshot version tolerance" `Quick test_snapshot_version_tolerance;
    Alcotest.test_case "diff classification" `Quick test_diff_classification;
    Alcotest.test_case "diff time and membership" `Quick test_diff_time_and_membership;
    Alcotest.test_case "diff ignore-time" `Quick test_diff_ignore_time;
    Alcotest.test_case "diff counter deltas" `Quick test_diff_counter_deltas;
    Alcotest.test_case "diff json output" `Quick test_diff_to_json;
    Alcotest.test_case "profile of hand-written trace" `Quick test_profile_of_json;
    Alcotest.test_case "profile of real trace" `Quick test_profile_real_trace;
    Alcotest.test_case "gradient explain stream" `Quick test_gradient_explain_stream;
    Alcotest.test_case "gradient explain parallel" `Quick test_gradient_explain_parallel;
  ]
