(* Metrics registry, live telemetry and exporters: registration
   semantics (duplicates are hard errors, kinds are enforced),
   Metrics.add reaching span totals through the registry, catalog
   coverage of a real flow run, the status-file
   atomic-rename protocol under a concurrent reader and the samples a
   real flow run writes, the Chrome trace exporter's
   structural invariants, the DESIGN.md drift gate, inspect's
   delta/--abs timestamp modes, and the non-TTY heartbeat throttle. *)

module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module M = Sbm_obs.Metrics
module Status = Sbm_obs.Status
module S = Sbm_obs.Stream
module Wd = Sbm_obs.Watchdog
module Json = Sbm_report.Json
module Chrome = Sbm_report.Chrome
module Catalog = Sbm_report.Catalog
module Live = Sbm_report.Live
module Inspect = Sbm_report.Inspect
module Pm = Sbm_obs.Postmortem
module Rng = Sbm_util.Rng

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let replace_first hay needle by =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then hay
    else if String.sub hay i nn = needle then
      String.sub hay 0 i ^ by ^ String.sub hay (i + nn) (nh - i - nn)
    else scan (i + 1)
  in
  scan 0

(* Registration is process-global and once-only, so test handles live
   at module initialization like real call sites. *)
let c_basic = M.counter ~engine:"test" ~unit_:"widgets" "test.basic" "basic counter"
let g_basic = M.gauge ~engine:"test" "test.gauge" "basic gauge"
let c_bump = M.counter ~engine:"test" "test.bump" "bump counter"
let c_status = M.counter ~engine:"test" "test.status" "status hammer counter"

(* --- registry semantics --- *)

let test_registration () =
  Alcotest.check_raises "duplicate name is a hard error"
    (Invalid_argument "Sbm_obs.Metrics: duplicate registration of \"test.basic\"")
    (fun () -> ignore (M.counter "test.basic" "again"));
  Alcotest.(check string) "name" "test.basic" (M.name c_basic);
  Alcotest.(check string) "unit" "widgets" (M.unit_ c_basic);
  Alcotest.(check string) "engine" "test" (M.engine c_basic);
  Alcotest.(check string) "kind string" "counter"
    (M.kind_to_string (M.kind c_basic));
  Alcotest.(check bool) "kind round-trip" true
    (M.kind_of_string "gauge" = Some M.Gauge);
  Alcotest.(check bool) "find hit" true (M.find "test.gauge" = Some g_basic);
  Alcotest.(check bool) "find miss" true (M.find "test.absent" = None);
  let names = List.map M.name (M.all ()) in
  Alcotest.(check bool) "all is sorted" true
    (names = List.sort compare names);
  Alcotest.(check bool) "all contains handles" true
    (List.mem "test.basic" names && List.mem "test.gauge" names)

let test_kinds_enforced () =
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "add on gauge raises" true
    (raises (fun () -> M.add g_basic 1));
  Alcotest.(check bool) "set on counter raises" true
    (raises (fun () -> M.set c_basic 1))

let test_values () =
  let v0 = M.value c_basic in
  M.add c_basic 5;
  M.incr c_basic;
  Alcotest.(check int) "counter accumulates" (v0 + 6) (M.value c_basic);
  M.set g_basic 42;
  Alcotest.(check int) "gauge holds last set" 42 (M.value g_basic);
  M.set g_basic 7;
  Alcotest.(check int) "gauge overwrites" 7 (M.value g_basic);
  (* The process gauges sample on read and never go negative. *)
  (match M.find "process.heap_words" with
  | None -> Alcotest.fail "process.heap_words not registered"
  | Some g -> Alcotest.(check bool) "heap gauge samples" true (M.value g > 0))

(* --- Metrics.add: the registry is the one sink --- *)

let test_bump_dual_sink () =
  let v0 = M.value c_bump in
  let trace = Obs.create () in
  let root = Obs.root trace "bump-test" in
  M.add c_bump 3;
  Obs.close root;
  Alcotest.(check int) "registry side" (v0 + 3) (M.value c_bump);
  Alcotest.(check (option int)) "span-totals side" (Some 3)
    (List.assoc_opt "test.bump" (Obs.totals trace));
  (* With no span open the add still lands — untraced runs still feed
     the dashboard. *)
  M.add c_bump 2;
  Alcotest.(check int) "untraced add still reaches the registry" (v0 + 5)
    (M.value c_bump)

(* --- catalog coverage: a real flow's counters are all registered --- *)

let test_flow_counters_registered () =
  let rng = Rng.create 7 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:40 ~outputs:3 rng in
  let trace = Obs.create () in
  let root = Obs.root ~size:(Aig.size aig) trace "cover" in
  let optimized =
    Sbm_core.Flow.run ~obs:root (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) aig
  in
  Obs.close ~size:(Aig.size optimized) root;
  List.iter
    (fun (name, _) ->
      match M.find name with
      | None -> Alcotest.failf "counter %s not in the metrics registry" name
      | Some m ->
        Alcotest.(check string)
          (name ^ " is a counter") "counter"
          (M.kind_to_string (M.kind m)))
    (Obs.totals trace)

(* --- status file: atomic rename means no torn reads --- *)

let test_status_atomicity () =
  let path = Filename.temp_file "sbm_status" ".jsonl" in
  Status.start ~interval_ms:20. path;
  Alcotest.(check bool) "status file open" true (Status.active ());
  Alcotest.check_raises "second start refused"
    (Invalid_argument "Sbm_obs.Status.start: already running")
    (fun () -> Status.start path);
  let parse_all src =
    String.split_on_char '\n' src
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Json.parse
  in
  (* A reader domain parses the file while this domain bumps counters
     and polls: every observed state must parse line by line. *)
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let reads = ref 0 in
        while not (Atomic.get stop) do
          ignore (parse_all (In_channel.with_open_bin path In_channel.input_all));
          incr reads;
          Unix.sleepf 0.0005
        done;
        !reads)
  in
  for i = 1 to 100 do
    M.add c_status i;
    Obs.poll ();
    Unix.sleepf 0.001
  done;
  Atomic.set stop true;
  Alcotest.(check bool) "the reader read" true (Domain.join reader > 0);
  Status.stop ();
  let samples =
    match Status.load path with
    | Ok v -> v
    | Error msg -> Alcotest.fail ("load after stop: " ^ msg)
  in
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "final sample is marked finished" true
    last.Status.finished;
  let seqs = List.map (fun v -> v.Status.seq) samples in
  Alcotest.(check bool) "seq strictly increasing" true
    (List.sort_uniq compare seqs = seqs);
  Alcotest.(check bool) "polls sampled during the run" true
    (List.length samples >= 3);
  Alcotest.(check bool) "hammered counter visible in final sample" true
    (match List.assoc_opt "test.status" last.Status.counters with
    | Some v -> v >= 5050 (* sum 1..100; earlier suites may add more *)
    | None -> false);
  Alcotest.(check bool) "status file closed" false (Status.active ());
  S.close ();
  Sys.remove path

(* A traced ctrl sbm-low run samples at its span boundaries and poll
   sites, not only at start and stop. *)
let test_status_flow () =
  let path = Filename.temp_file "sbm_status_flow" ".jsonl" in
  Status.start ~interval_ms:20. path;
  let aig = Sbm_epfl.Epfl.generate Sbm_epfl.Epfl.Ctrl in
  let root = Obs.root (Obs.create ()) "ctrl" in
  ignore (Sbm_core.Flow.run ~obs:root (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) aig);
  Obs.close root;
  Status.stop ();
  S.close ();
  match Status.load path with
  | Error msg -> Alcotest.fail msg
  | Ok samples ->
    Sys.remove path;
    let running = List.filter (fun s -> not s.Status.finished) samples in
    Alcotest.(check bool) "at least two samples before the final one" true
      (List.length running >= 2);
    Alcotest.(check bool) "only the last is finished" true
      (List.length running = List.length samples - 1)

(* --- Chrome exporter --- *)

let chrome_fixture =
  {|{"version":2,"label":"t","spans":[
      {"name":"root","wall_ms":10.0,"size_before":100,
       "counters":{"gain":3},
       "children":[{"name":"a","wall_ms":4.0,"children":[]},
                   {"name":"b","wall_ms":5.0,"children":[]}]}],
     "samples":[
      {"seq":0,"t_ms":1.0,"pass":"root","counters":{"sat.conflicts":1},
       "gauges":{"process.heap_words":100},"verdicts":0,"abort":false,"finished":false},
      {"seq":1,"t_ms":2.0,"pass":"root>a","counters":{"sat.conflicts":5},
       "gauges":{"process.heap_words":90},"verdicts":0,"abort":false,"finished":true}],
     "events":[
      {"seq":0,"t_ms":1.5,"severity":"info","engine":"sat","id":"restart",
       "message":"storm","metrics":{"k":2}},
      {"seq":1,"t_ms":3.0,"severity":"warn","engine":"watchdog",
       "id":"pass-deadline","message":"slow","metrics":{}}]}|}

let test_chrome_export () =
  let doc =
    match Chrome.convert chrome_fixture with
    | Ok doc -> doc
    | Error msg -> Alcotest.fail msg
  in
  let j = Json.parse doc in
  let events = Json.to_list (Json.member "traceEvents" j) in
  let ph e = Option.value ~default:"" (Json.to_str (Json.member "ph" e)) in
  let name e = Option.value ~default:"" (Json.to_str (Json.member "name" e)) in
  let ts e = Option.value ~default:nan (Json.to_float (Json.member "ts" e)) in
  let count p = List.length (List.filter (fun e -> ph e = p) events) in
  Alcotest.(check int) "one B per span" 3 (count "B");
  Alcotest.(check int) "B/E balanced" (count "B") (count "E");
  (* Durations nest: depth never goes negative and ends at zero. *)
  let depth =
    List.fold_left
      (fun d e ->
        let d = d + (match ph e with "B" -> 1 | "E" -> -1 | _ -> 0) in
        Alcotest.(check bool) "E never precedes its B" true (d >= 0);
        d)
      0 events
  in
  Alcotest.(check int) "all spans closed" 0 depth;
  (* Children are laid out sequentially from the parent start. *)
  let b_of n =
    List.find (fun e -> ph e = "B" && name e = n) events
  in
  Alcotest.(check (float 0.001)) "root starts at 0" 0.0 (ts (b_of "root"));
  Alcotest.(check (float 0.001)) "first child at parent start" 0.0 (ts (b_of "a"));
  Alcotest.(check (float 0.001)) "second child after first" 4000.0 (ts (b_of "b"));
  (* Counter series: one C event per sample, non-decreasing values in
     timestamp order for a monotonic counter. *)
  let series =
    List.filter (fun e -> ph e = "C" && name e = "sat.conflicts") events
  in
  Alcotest.(check int) "one C per sample" 2 (List.length series);
  let values =
    List.map
      (fun e ->
        match Json.member "args" e with
        | Some a -> Option.value ~default:nan (Json.to_float (Json.member "value" a))
        | None -> nan)
      (List.sort (fun a b -> Float.compare (ts a) (ts b)) series)
  in
  Alcotest.(check bool) "counter series non-decreasing" true
    (values = List.sort Float.compare values);
  (* Instants from the flight recorder and the watchdog. *)
  Alcotest.(check bool) "recorder instant present" true
    (List.exists (fun e -> ph e = "i" && name e = "sat:restart") events);
  Alcotest.(check bool) "watchdog instant present" true
    (List.exists (fun e -> ph e = "i" && name e = "watchdog:pass-deadline") events)

(* A verdict is its [watchdog] recorder event, drawn once; the
   "verdicts" key of older traces is not read. *)
let test_chrome_verdict_once () =
  let doc =
    match
      Chrome.convert
        {|{"version":2,"spans":[{"name":"root","wall_ms":5.0,"children":[]}],
           "events":[
            {"seq":0,"t_ms":1.0,"severity":"warn","engine":"watchdog",
             "id":"pass-deadline","message":"slow","metrics":{}},
            {"seq":1,"t_ms":2.0,"severity":"info","engine":"flow",
             "id":"mspf","message":"pass start","metrics":{"size":9}}],
           "verdicts":[
            {"rule":"pass-deadline","detail":"slow","action":"note","t_ms":1.0}]}|}
    with
    | Ok doc -> doc
    | Error msg -> Alcotest.fail msg
  in
  let instants =
    Json.to_list (Json.member "traceEvents" (Json.parse doc))
    |> List.filter (fun e -> Json.str "ph" e = "i")
  in
  Alcotest.(check (list (pair string string)))
    "one instant per event, the verdict's included"
    [ ("watchdog:pass-deadline", "t"); ("flow:mspf", "t") ]
    (List.map (fun e -> (Json.str "name" e, Json.str "s" e)) instants)

let test_chrome_rejects () =
  (match Chrome.convert "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Chrome.convert "{\"version\":2}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "span-less document accepted"

(* --- catalog drift gate --- *)

let doc_of_registry () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "| metric | kind | unit | engine | description |\n";
  Buffer.add_string b "| --- | --- | --- | --- | --- |\n";
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %s | %s | %s |\n" (M.name m)
           (M.kind_to_string (M.kind m))
           (M.unit_ m) (M.engine m) (M.description m)))
    (M.all ());
  Buffer.contents b

let test_catalog_check () =
  let doc = doc_of_registry () in
  (match Catalog.check doc with
  | Ok n -> Alcotest.(check int) "all metrics match" (List.length (M.all ())) n
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  (* A missing row is drift. *)
  let without =
    String.split_on_char '\n' doc
    |> List.filter (fun l ->
           not (has_substring l "`test.basic`"))
    |> String.concat "\n"
  in
  (match Catalog.check without with
  | Error msgs ->
    Alcotest.(check bool) "missing row reported" true
      (List.exists (fun m -> has_substring m "test.basic") msgs)
  | Ok _ -> Alcotest.fail "missing row not detected");
  (* A documented-but-unregistered metric is drift in the other
     direction; so is a kind mismatch. *)
  (match Catalog.check (doc ^ "| `test.phantom` | counter | count | test | x |\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "phantom row not detected");
  (match
     Catalog.check
       (replace_first doc "| `test.basic` | counter |"
          "| `test.basic` | gauge |")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kind mismatch not detected");
  match Catalog.check "no table here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty document accepted"

(* --- inspect: delta timestamps by default, --abs opts into ns --- *)

let inspect_fixture =
  {|{"version":1,"reason":"test","pid":1,"elapsed_ms":1500.0,"t0_ns":5000000000,
     "span_stack":[{"name":"pass","opened_ms":100.0}],
     "watchdog":[{"rule":"r","detail":"d","action":"note","t_ms":200.0}],
     "counters":{"x":1},"recorded":1,"dropped":0,
     "events":[{"seq":0,"t_ms":123.456,"t_ns":5123456000,"severity":"info",
                "engine":"sat","id":"e","message":"m","metrics":{}}]}|}

let render ?abs dump = Fmt.str "%a" (Inspect.pp ?abs ~last:5) dump

let test_inspect_timestamps () =
  let dump =
    match Pm.of_json inspect_fixture with
    | Ok d -> d
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "t0_ns parsed" true (dump.Pm.t0_ns = Some 5_000_000_000L);
  (match dump.Pm.events with
  | [ e; v ] ->
    Alcotest.(check string) "the verdict becomes an event, in time order" "r"
      v.S.id;
    Alcotest.(check int64) "event offset from its absolute t_ns" 123_456_000L
      e.S.t_ns
  | _ -> Alcotest.fail "expected the verdict and one event");
  let plain = render dump in
  Alcotest.(check bool) "default prints deltas" true
    (has_substring plain "+123.5 ms");
  Alcotest.(check bool) "default has no ns column" false
    (has_substring plain "ns]");
  let abs = render ~abs:true dump in
  Alcotest.(check bool) "--abs prints the event's own clock" true
    (has_substring abs "5123456000 ns]");
  Alcotest.(check bool) "--abs reconstructs t0+delta for verdicts" true
    (has_substring abs "5200000000 ns]");
  (* Round trip via the canonical emitter preserves the clock. *)
  match Pm.of_json (Pm.to_json dump) with
  | Error msg -> Alcotest.fail ("round trip: " ^ msg)
  | Ok d2 ->
    Alcotest.(check bool) "t0_ns round-trips" true (d2.Pm.t0_ns = dump.Pm.t0_ns);
    Alcotest.(check bool) "t_ns round-trips" true
      ((List.hd d2.Pm.events).S.t_ns = (List.hd dump.Pm.events).S.t_ns)

(* Dumps that predate t0_ns render deltas even under --abs. *)
let test_inspect_abs_fallback () =
  let legacy =
    {|{"version":1,"reason":"r","pid":1,"elapsed_ms":10.0,"span_stack":[],
       "watchdog":[],"counters":{},"recorded":1,"dropped":0,
       "events":[{"seq":0,"t_ms":7.0,"severity":"info","engine":"e","id":"",
                  "message":"m","metrics":{}}]}|}
  in
  match Pm.of_json legacy with
  | Error msg -> Alcotest.fail msg
  | Ok dump ->
    Alcotest.(check bool) "no t0_ns" true (dump.Pm.t0_ns = None);
    let abs = render ~abs:true dump in
    Alcotest.(check bool) "falls back to deltas" true
      (has_substring abs "+7.0 ms")

(* --- heartbeat throttle: piped stderr beats once per pass path --- *)

let test_heartbeat_throttle () =
  let finally () =
    Wd.force_tty := None;
    Wd.disarm ();
    S.close ()
  in
  Fun.protect ~finally (fun () ->
      S.enable_recorder ();
      (* interval 0: always due, so the pass-path condition is the only
         throttle under test. *)
      let config =
        { Wd.default_config with Wd.heartbeat_ms = Some 0.0 }
      in
      Wd.force_tty := Some false;
      Wd.arm config;
      Alcotest.(check int) "armed fresh" 0 (Wd.beats ());
      (* Spans poll as they open and close. *)
      let root = Obs.root (Obs.create ()) "flow" in
      Alcotest.(check int) "piped: the first path beats" 1 (Wd.beats ());
      let pass parent name = Obs.pass ~size:1 ~depth:1 parent name in
      let alpha = pass root "alpha" in
      Wd.poll ();
      Wd.poll ();
      Alcotest.(check int) "piped: one beat per pass path" 2 (Wd.beats ());
      let beta = pass alpha "beta" in
      Wd.poll ();
      Wd.poll ();
      Alcotest.(check int) "piped: new pass, one more beat" 3 (Wd.beats ());
      Obs.close_pass ~size:1 ~depth:1 beta;
      Wd.poll ();
      Alcotest.(check int) "piped: popping back counts as a change" 4 (Wd.beats ());
      (* A TTY pulses on every due interval regardless of the pass. *)
      Wd.force_tty := Some true;
      Wd.poll ();
      Wd.poll ();
      Alcotest.(check int) "tty: every due poll beats" 6 (Wd.beats ());
      Obs.close_pass ~size:1 ~depth:1 alpha;
      Obs.close root)

(* --- live dashboard parsing/rendering --- *)

let test_live_render () =
  let path = Filename.temp_file "sbm_live" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ({|{"seq":0,"t_ms":1000.0,"pass":"flow>mspf","counters":{"mspf.computed":100},"gauges":{"process.heap_words":5},"verdicts":0,"abort":false,"finished":false}|}
        ^ "\n"
        ^ {|{"seq":1,"t_ms":2000.0,"pass":"flow>mspf","counters":{"mspf.computed":300},"gauges":{"process.heap_words":6},"verdicts":1,"abort":false,"finished":true}|}
        ^ "\n"));
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      match Status.load path with
      | Error msg -> Alcotest.fail msg
      | Ok samples ->
        Alcotest.(check int) "two samples" 2 (List.length samples);
        let prev = List.nth samples 0 and last = List.nth samples 1 in
        let screen = Live.render ~prev last in
        Alcotest.(check bool) "shows the pass path" true
          (has_substring screen "flow>mspf");
        Alcotest.(check bool) "shows the finished state" true
          (has_substring screen "finished");
        (* 200 counts over 1s. *)
        Alcotest.(check bool) "rate from the sample delta" true
          (has_substring screen "200.0/s");
        Alcotest.(check bool) "gauges listed" true
          (has_substring screen "process.heap_words"))

let suite =
  [
    Alcotest.test_case "registration + metadata" `Quick test_registration;
    Alcotest.test_case "kind enforcement" `Quick test_kinds_enforced;
    Alcotest.test_case "counter/gauge values" `Quick test_values;
    Alcotest.test_case "Metrics.add feeds span and registry" `Quick test_bump_dual_sink;
    Alcotest.test_case "flow counters all registered" `Slow test_flow_counters_registered;
    Alcotest.test_case "status file atomicity" `Quick test_status_atomicity;
    Alcotest.test_case "status samples of a traced flow" `Slow test_status_flow;
    Alcotest.test_case "chrome exporter invariants" `Quick test_chrome_export;
    Alcotest.test_case "chrome exporter rejects junk" `Quick test_chrome_rejects;
    Alcotest.test_case "chrome exporter draws each verdict once" `Quick
      test_chrome_verdict_once;
    Alcotest.test_case "catalog drift gate" `Quick test_catalog_check;
    Alcotest.test_case "inspect delta/abs timestamps" `Quick test_inspect_timestamps;
    Alcotest.test_case "inspect --abs legacy fallback" `Quick test_inspect_abs_fallback;
    Alcotest.test_case "heartbeat throttle off-TTY" `Quick test_heartbeat_throttle;
    Alcotest.test_case "live dashboard render" `Quick test_live_render;
  ]
