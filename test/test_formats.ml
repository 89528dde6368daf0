(* Every telemetry format is read back by the lib/obs module that
   writes it. For each format, records from one real ctrl run must
   survive [of_json (to_json x) = x], and the producer's text must
   survive [to_json (of_json s) = s]; the post-mortem reader also
   migrates a version-1 dump without [t0_ns], and keeps absolute clocks
   past 2^53 ns exact. The trace reader gives back the forest of a
   closed ctrl trace, and the trace's histograms block is the
   aggregation of its own spans. *)

module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module Json = Sbm_obs.Json
module S = Sbm_obs.Stream
module Wd = Sbm_obs.Watchdog
module Ledger = Sbm_obs.Ledger
module Status = Sbm_obs.Status
module Snapshot = Sbm_obs.Snapshot
module Pm = Sbm_obs.Postmortem
module Flow = Sbm_core.Flow

type run = {
  snapshot : Snapshot.t;
  records : S.link list;
  samples : Status.sample list;
  dump : Pm.dump;
}

(* One sbm-low run on ctrl with every producer on: ledger (with the LUT
   probe), audit trail, status file, flight recorder and a watchdog
   whose zero deadline fires verdicts. The flow fails on purpose at its
   fifth pass, so the post-mortem has open spans to report. *)
let ctrl_run =
  lazy
    (let status_path = Filename.temp_file "sbm_formats" ".jsonl" in
     let probe aig =
       let m = Sbm_lutmap.Lut_map.map ~k:6 aig in
       (m.Sbm_lutmap.Lut_map.lut_count, m.Sbm_lutmap.Lut_map.depth)
     in
     Fun.protect
       ~finally:(fun () ->
         Status.stop ();
         Sys.remove status_path;
         Flow.ledger_qor_probe := None;
         Flow.inject_failure_after := None;
         Wd.disarm ();
         S.close ())
       (fun () ->
         Flow.ledger_qor_probe := Some probe;
         S.enable_trail ();
         Wd.arm { Wd.default_config with Wd.pass_deadline_ms = Some 0.0 };
         Status.start ~interval_ms:20. status_path;
         let aig = Sbm_epfl.Epfl.generate Sbm_epfl.Epfl.Ctrl in
         let trace = Obs.create () in
         Pm.configure ~trace ();
         let root = Obs.root ~size:(Aig.size aig) trace "ctrl" in
         Flow.inject_failure_after := Some 5;
         let t0 = Unix.gettimeofday () in
         (match Flow.run ~obs:root (Flow.Sbm Flow.Low) aig with
         | (_ : Aig.t) -> Alcotest.fail "injected failure did not fire"
         | exception Failure _ -> ());
         let dump = Pm.capture ~reason:"injected \"failure\"" () in
         Obs.close root;
         Status.stop ();
         let m = Sbm_lutmap.Lut_map.map ~k:6 aig in
         let entry =
           {
             Snapshot.bench = "ctrl";
             size_before = Aig.size aig;
             qor =
               {
                 Snapshot.size = Aig.size aig;
                 depth = Aig.depth aig;
                 luts = m.Sbm_lutmap.Lut_map.lut_count;
                 levels = m.Sbm_lutmap.Lut_map.depth;
               };
             cec = Some "proven";
             wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0);
             counters = Obs.totals trace;
             passes = Obs.ledger trace;
           }
         in
         {
           snapshot = Snapshot.make ~label:"flow=sbm-low \"ctrl\"" ~seed:3 [ entry ];
           records = S.trail ();
           samples = Status.samples ();
           dump;
         }))

(* The table: each value's text, and the reader's value and re-emitted
   text for it. *)
let check_round_trips what ~to_json ~of_json values =
  Alcotest.(check bool) (what ^ ": the run produced values") true (values <> []);
  List.iter
    (fun x ->
      let s = to_json x in
      match of_json s with
      | None -> Alcotest.failf "%s: unreadable: %s" what s
      | Some y ->
        Alcotest.(check bool) (what ^ ": of_json (to_json x) = x") true (x = y);
        Alcotest.(check string) (what ^ ": to_json (of_json s) = s") s (to_json y))
    values

let line_reader f s = f (Json.parse s)

(* The run's entry is proven; copies carry the other [cec] states: an
   unknown verdict, and no key at all (a snapshot older than it). *)
let test_snapshot () =
  let { snapshot; _ } = Lazy.force ctrl_run in
  Alcotest.(check bool) "snapshot carries ledger rows" true
    (List.exists (fun (e : Snapshot.entry) -> e.passes <> []) snapshot.entries);
  let e = List.hd snapshot.entries in
  check_round_trips "snapshot" ~to_json:Snapshot.to_json
    ~of_json:(fun s -> Result.to_option (Snapshot.of_json s))
    [
      Snapshot.make ~label:snapshot.label ~seed:snapshot.seed
        [ e; { e with bench = "ctrl-unknown"; cec = Some "unknown" };
          { e with bench = "ctrl-unrecorded"; cec = None } ];
    ];
  check_round_trips "ledger row" ~to_json:(Ledger.row_to_json ?stable:None)
    ~of_json:(fun s -> Some (line_reader Ledger.row_of_json s))
    (List.concat_map (fun (e : Snapshot.entry) -> e.passes) snapshot.entries)

(* The committed gate snapshot re-emits byte for byte. *)
let test_committed_snapshot () =
  let text = In_channel.with_open_bin "../BENCH_baseline.json" In_channel.input_all in
  match Snapshot.of_json text with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    Alcotest.(check string) "BENCH_baseline.json re-emits byte for byte" text
      (Snapshot.to_json t ^ "\n")

(* Every committed snapshot speaks the current catalog: each counter
   name, in an entry's totals and in its ledger rows, is a registered
   metric, and each entry carries its equivalence verdict. *)
let test_committed_snapshots_current () =
  List.iter
    (fun file ->
      match Snapshot.load ("../" ^ file) with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok t ->
        List.iter
          (fun (e : Snapshot.entry) ->
            let names =
              List.map fst e.counters
              @ List.concat_map
                  (fun (r : Ledger.row) -> List.map fst r.counters)
                  e.passes
            in
            List.iter
              (fun name ->
                if Sbm_obs.Metrics.find name = None then
                  Alcotest.failf "%s/%s: unregistered counter %s" file e.bench name)
              names;
            if e.cec = None then
              Alcotest.failf "%s/%s: no cec verdict" file e.bench)
          t.entries)
    [ "BENCH_baseline.json"; "BENCH_sbm.json"; "BENCH_full.json" ]

let test_fingerprint_record () =
  let { records; dump; _ } = Lazy.force ctrl_run in
  Alcotest.(check bool) "trail has merge records" true
    (List.exists (fun (l : S.link) -> l.boundary = S.Merge) records);
  let writer buf x =
    let b = Buffer.create 256 in
    buf b x;
    Buffer.contents b
  in
  check_round_trips "fingerprint record" ~to_json:(writer S.buf_link)
    ~of_json:(line_reader S.link_of_json) records;
  check_round_trips "stream record" ~to_json:(writer S.buf_record)
    ~of_json:(fun s -> Some (line_reader S.record_of_json s))
    dump.events

let test_status_sample () =
  let { samples; _ } = Lazy.force ctrl_run in
  check_round_trips "status sample" ~to_json:Status.sample_to_json
    ~of_json:(fun s -> Some (line_reader Status.sample_of_json s))
    samples

(* Written in the version-1 producer's layout; it predates [t0_ns], so
   its events carry no absolute [t_ns] either. *)
let legacy_dump =
  {|{"version":1,"reason":"signal SIGINT","pid":42,"elapsed_ms":10.250,"span_stack":[{"name":"sbm-low","opened_ms":0.125}],"watchdog":[{"rule":"gradient-stall","detail":"3 consecutive zero-gain gradient rounds","action":"abort","t_ms":9.001}],"counters":{"gradient.rounds":3},"recorded":2,"dropped":0,"events":[{"seq":0,"t_ms":7.000,"severity":"info","engine":"flow","id":"gradient","message":"pass start","metrics":{"size":55}},{"seq":1,"t_ms":9.001,"severity":"warn","engine":"watchdog","id":"gradient-stall","message":"3 consecutive zero-gain gradient rounds","metrics":{}}]}|}

let test_postmortem_dump () =
  let { dump; _ } = Lazy.force ctrl_run in
  Alcotest.(check bool) "dump has open spans, verdicts and events" true
    (dump.span_stack <> [] && List.exists S.is_verdict dump.events);
  let of_json s = Result.to_option (Pm.of_json s) in
  check_round_trips "post-mortem dump" ~to_json:Pm.to_json ~of_json [ dump ];
  match Pm.of_json legacy_dump with
  | Error msg -> Alcotest.fail msg
  | Ok d -> (
    Alcotest.(check bool) "legacy dump has no t0_ns" true (d.t0_ns = None);
    Alcotest.(check (list string)) "its verdict is its event, once, an abort"
      [ "error" ]
      (List.map
         (fun (e : S.record) -> S.severity_to_string e.severity)
         (List.filter S.is_verdict d.events));
    let v3 = Pm.to_json d in
    match Pm.of_json v3 with
    | Error msg -> Alcotest.fail msg
    | Ok d2 ->
      Alcotest.(check int) "migrated to version 3" 3 d2.version;
      Alcotest.(check string) "the migrated dump re-emits byte for byte" v3
        (Pm.to_json d2))

(* A clean sbm-low run of ctrl under a root span that is closed, so
   the forest no longer moves. *)
let ctrl_trace =
  lazy
    (let aig = Sbm_epfl.Epfl.generate Sbm_epfl.Epfl.Ctrl in
     let trace = Obs.create () in
     let root = Obs.root ~size:(Aig.size aig) trace "ctrl" in
     let out = Flow.run ~obs:root (Flow.Sbm Flow.Low) aig in
     Obs.close ~size:(Aig.size out) root;
     trace)

(* The writer's [%.6f], so both sides of the histogram check carry the
   precision the document holds. *)
let written x = float_of_string (Printf.sprintf "%.6f" x)

let test_trace () =
  let trace = Lazy.force ctrl_trace in
  let doc = Obs.to_json trace in
  let spans =
    match Obs.of_json doc with Ok s -> s | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "the trace has pass spans" true
    (List.exists (fun (n : Obs.node) -> n.children <> []) spans);
  Alcotest.(check bool) "of_json (to_json t) = spans t" true
    (spans = Obs.spans trace);
  let row count total p50 p90 max = (count, List.map written [ total; p50; p90; max ]) in
  Alcotest.(check (list (pair string (pair int (list (float 0.0))))))
    "the histograms block is the aggregation of the trace's spans"
    (List.map
       (fun (name, (d : Obs.dist)) ->
         (name, row d.count d.total_ms d.p50_ms d.p90_ms d.max_ms))
       (Obs.aggregate spans))
    (List.map
       (fun (name, d) ->
         let ms k = Json.num k d in
         (name, row (Json.int "count" d) (ms "total_ms") (ms "p50_ms") (ms "p90_ms") (ms "max_ms")))
       (Json.to_obj (Json.member "histograms" (Json.parse doc))));
  (* A version-1 span has no gc object; a newer version is refused. *)
  let v1 =
    {|{"version":1,"totals":{"x":2},"spans":[{"name":"a","wall_ms":1.500000,"counters":{"x":2},"children":[]}]}|}
  in
  (match Obs.of_json v1 with
  | Ok [ a ] ->
    Alcotest.(check bool) "version 1: wall time, counters, zero gc" true
      (a.wall_ns = 1_500_000L && a.counters = [ ("x", 2) ]
      && a.gc.minor_words = 0.0 && a.gc.major_collections = 0)
  | Ok _ -> Alcotest.fail "version 1: expected one span"
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "version 3 is refused" true
    (Result.is_error (Obs.of_json {|{"version":3,"spans":[]}|}))

(* Absolute monotonic clocks past 2^53 ns (about 104 days of uptime)
   are decimal strings since version 2, so they come back exactly; a
   record's offset from [t0_ns] is its [t_ms], exact to the
   microsecond. A version-2 record (no "kind") carries its absolute
   clock, "t_ns", which [--abs] prints to the nanosecond. *)
let big_clock_dump =
  {|{"version":3,"reason":"r","pid":7,"elapsed_ms":1.002,"t0_ns":"9007199254740993","span_stack":[],"counters":{},"recorded":1,"dropped":0,"events":[{"seq":0,"t_ms":0.001,"kind":"pass-start","severity":"info","engine":"flow","id":"mspf","message":"pass start","metrics":{}}]}|}

let big_clock_dump_v2 =
  {|{"version":2,"reason":"r","pid":7,"elapsed_ms":1.002,"t0_ns":"9007199254740993","span_stack":[],"counters":{},"recorded":1,"dropped":0,"events":[{"seq":0,"t_ms":0.001,"t_ns":"9007199254741995","severity":"info","engine":"flow","id":"mspf","message":"pass start","metrics":{}}]}|}

let test_big_clocks () =
  let prints text needle =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length text && (String.sub text i n = needle || scan (i + 1))
    in
    scan 0
  in
  let abs d = Fmt.str "%a" (Sbm_report.Inspect.pp ?last:None ~abs:true) d in
  match (Pm.of_json big_clock_dump, Pm.of_json big_clock_dump_v2) with
  | Error msg, _ | _, Error msg -> Alcotest.fail msg
  | Ok d, Ok v2 ->
    Alcotest.(check string) "re-emits byte for byte" big_clock_dump (Pm.to_json d);
    Alcotest.(check bool) "--abs prints the exact clock" true
      (prints (abs d) "9007199254741993 ns]");
    Alcotest.(check bool) "the version-2 form reads the same records, timed by t_ns"
      true
      (v2.events = List.map (fun (e : S.record) -> { e with t_ns = 1002L }) d.events);
    Alcotest.(check bool) "--abs prints a version-2 record's exact clock" true
      (prints (abs v2) "9007199254741995 ns]")

let suite =
  [
    Alcotest.test_case "snapshot with ledger rows round-trips" `Quick test_snapshot;
    Alcotest.test_case "committed snapshot re-emits byte for byte" `Quick
      test_committed_snapshot;
    Alcotest.test_case "committed snapshots: registered counters, cec verdicts" `Quick
      test_committed_snapshots_current;
    Alcotest.test_case "fingerprint record round-trips" `Quick test_fingerprint_record;
    Alcotest.test_case "status sample round-trips" `Quick test_status_sample;
    Alcotest.test_case "post-mortem dump round-trips" `Quick test_postmortem_dump;
    Alcotest.test_case "post-mortem clocks past 2^53 ns are exact" `Quick
      test_big_clocks;
    Alcotest.test_case "trace reads back its forest and histograms" `Quick test_trace;
  ]
