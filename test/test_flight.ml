(* The in-flight observability layer: the record stream's recorder
   ring, the watchdog's threshold rules and abort lifecycle, post-mortem
   dump round-trips through the inspect reader, the flow's failure
   injection producing a parseable dump with the failing pass on the
   open span stack, and the stream's views agreeing on one run. The
   stream and the watchdog are process-global, so every test tears them
   down. *)

module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module S = Sbm_obs.Stream
module Wd = Sbm_obs.Watchdog
module Ledger = Sbm_obs.Ledger
module Chrome = Sbm_report.Chrome
module Json = Sbm_report.Json
module Pm = Sbm_obs.Postmortem

let teardown () =
  Wd.disarm ();
  S.close ();
  Sbm_core.Flow.inject_failure_after := None

(* Pass spans opened by hand, the way [Flow.pass] opens them. *)
let pass parent name = Obs.pass ~size:10 ~depth:3 parent name
let close_pass sp = Obs.close_pass ~size:9 ~depth:3 sp
let fresh_root name = Obs.root (Obs.create ()) name

let protecting f () = Fun.protect ~finally:teardown f

let verdicts () = List.filter S.is_verdict (S.events ())

(* The boundaries the watchdog's record rules read: a finished
   partition with its BDD bails, and a finished gradient round. *)
let partition_done bails =
  Obs.partition_done ~engine:"mspf" ~index:0 ~structure:(fun () -> 0L)
    [ ("bails", bails) ]

let round_done gain =
  S.append ~kind:S.Round ~engine:"gradient" ~metrics:[ ("gain", gain) ]
    "round done"

(* --- ring buffer --- *)

let test_ring_wraparound () =
  S.enable_recorder ~capacity:16 ();
  Alcotest.(check int) "capacity clamped to minimum" 16 (S.capacity ());
  for i = 0 to 19 do
    S.append ~engine:"test" ~metrics:[ ("i", i) ] "tick"
  done;
  let events = S.events () in
  Alcotest.(check int) "ring holds capacity" 16 (List.length events);
  Alcotest.(check int) "recorded counts everything" 20 (S.recorded ());
  Alcotest.(check int) "dropped = overwritten" 4 (S.dropped ());
  (* Oldest first: the surviving window is seqs 4..19. *)
  Alcotest.(check int) "oldest surviving seq" 4 (List.hd events).S.seq;
  Alcotest.(check int) "newest seq" 19
    (List.nth events 15).S.seq;
  Alcotest.(check (list (pair string int)))
    "metrics ride along" [ ("i", 19) ]
    (List.nth events 15).S.metrics

let test_disabled_is_noop () =
  S.close ();
  Alcotest.(check bool) "off by default" false (S.on ());
  S.append ~engine:"test" "ignored";
  let root = fresh_root "flow" in
  close_pass (pass root "ghost");
  Obs.close root;
  Alcotest.(check int) "nothing recorded, pass events included" 0
    (S.recorded ());
  Alcotest.(check int) "no capacity" 0 (S.capacity ())

let test_event_fields () =
  S.enable_recorder ();
  S.append ~severity:S.Warn ~id:"partition-3"
    ~metrics:[ ("bails", 2); ("members", 41) ]
    ~engine:"mspf" "node-budget bail-out";
  (match S.events () with
  | [ e ] ->
    Alcotest.(check string) "severity" "warn" (S.severity_to_string e.S.severity);
    Alcotest.(check string) "engine" "mspf" e.S.engine;
    Alcotest.(check string) "id" "partition-3" e.S.id;
    Alcotest.(check string) "message" "node-budget bail-out" e.S.message;
    Alcotest.(check (list (pair string int)))
      "metrics in emission order"
      [ ("bails", 2); ("members", 41) ]
      e.S.metrics;
    Alcotest.(check bool) "timestamped" true (e.S.t_ns >= 0L)
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  (* Re-enabling restarts from empty. *)
  S.enable_recorder ();
  Alcotest.(check int) "re-enable resets" 0 (S.recorded ())

let test_span_stack_follows_obs () =
  S.enable_recorder ();
  let names () = Obs.Span_stack.names () in
  let trace = Obs.create () in
  let root = Obs.root trace "flow" in
  let child = Obs.span root "mspf" in
  Alcotest.(check (list string)) "outermost first" [ "flow"; "mspf" ] (names ());
  Obs.close child;
  Alcotest.(check (list string)) "pop on close" [ "flow" ] (names ());
  Obs.close root;
  Alcotest.(check (list string)) "empty at end" [] (names ())

(* --- watchdog rules --- *)

let arm_with f = Wd.arm (f Wd.default_config)

let rules () = List.map (fun e -> e.S.id) (verdicts ())

let test_deadline_fires_once_per_pass () =
  arm_with (fun c -> { c with Wd.pass_deadline_ms = Some 0.0 });
  let root = fresh_root "flow" in
  let sp = pass root "mspf" in
  Unix.sleepf 0.001;
  Wd.poll ();
  Wd.poll ();
  Alcotest.(check (list string)) "one verdict per frame" [ "pass-deadline" ] (rules ());
  close_pass sp;
  let sp = pass root "mspf" in
  Unix.sleepf 0.001;
  Wd.poll ();
  Alcotest.(check int) "re-fires for a new activation" 2 (List.length (rules ()));
  close_pass sp;
  Obs.close root;
  (* The verdict is a recorder event (arm enables the recorder): a
     warning, since the action is a note. *)
  Alcotest.(check bool) "verdict recorded as a warn event" true
    (List.for_all (fun e -> e.S.severity = S.Warn) (verdicts ()))

let test_bail_streak () =
  arm_with (fun c -> { c with Wd.max_bail_streak = Some 3 });
  partition_done 1;
  partition_done 2;
  Alcotest.(check (list string)) "below threshold" [] (rules ());
  partition_done 0 (* resets *);
  partition_done 1;
  partition_done 1;
  partition_done 1;
  Alcotest.(check (list string)) "streak of 3 fires" [ "bail-streak" ] (rules ())

let test_gradient_stall () =
  arm_with (fun c -> { c with Wd.stall_rounds = Some 2 });
  round_done 5;
  round_done 0;
  Alcotest.(check (list string)) "one dry round is fine" [] (rules ());
  round_done 0;
  Alcotest.(check (list string)) "two dry rounds stall" [ "gradient-stall" ] (rules ())

let test_abort_lifecycle () =
  arm_with (fun c ->
      { c with Wd.max_bail_streak = Some 1; action = Wd.Abort });
  let root = fresh_root "flow" in
  let sp = pass root "mspf" in
  Alcotest.(check bool) "no abort yet" false (Wd.abort_requested ());
  partition_done 1;
  Alcotest.(check bool) "abort requested" true (Wd.abort_requested ());
  Alcotest.(check (list string)) "an abort verdict is an error event"
    [ "error" ]
    (List.map (fun e -> S.severity_to_string e.S.severity) (verdicts ()));
  close_pass sp;
  Alcotest.(check bool) "pass end clears abort" false (Wd.abort_requested ());
  Obs.close root;
  Wd.disarm ();
  (* Disarmed hooks are no-ops. *)
  partition_done 9;
  Wd.poll ();
  Alcotest.(check bool) "disarmed" false (Wd.abort_requested ())

(* A move is charged in full while any budget is left, so a round can
   end with the budget below 0. On a single AND gate every move gains
   nothing: round 1 spends 2 of 3 on the tier-1 moves, round 2's first
   tier-2 move (cost 2) overruns to -1, and the stall rule aborts the
   run at the end of that round. Nothing is left to forfeit then, so
   the counter and the stream record both say 0. *)
let test_abort_after_overrun () =
  arm_with (fun c -> { c with Wd.stall_rounds = Some 2; action = Wd.Abort });
  let aig = Aig.create () in
  let a = Aig.add_input aig and b = Aig.add_input aig in
  ignore (Aig.add_output aig (Aig.band aig a b));
  let counter name =
    match Obs.Metrics.find name with
    | Some c -> Obs.Metrics.value c
    | None -> Alcotest.failf "counter %s is not registered" name
  in
  let aborts0 = counter "watchdog.gradient_aborts" in
  let forfeited0 = counter "gradient.budget_forfeited" in
  let left = ref [] in
  let module G = Sbm_core.Gradient in
  ignore
    (G.run
       ~explain:(fun e -> left := e.G.budget_left :: !left)
       ~config:{ G.default_config with budget = 3 }
       aig);
  Alcotest.(check int) "the aborted round overran the budget" (-1)
    (List.hd !left);
  Alcotest.(check int) "the stall rule aborted the run" (aborts0 + 1)
    (counter "watchdog.gradient_aborts");
  Alcotest.(check int) "nothing forfeited" forfeited0
    (counter "gradient.budget_forfeited");
  match
    List.find_opt
      (fun e -> e.S.engine = "gradient" && List.mem_assoc "budget_forfeited" e.S.metrics)
      (S.events ())
  with
  | Some e ->
    Alcotest.(check int) "the stream record forfeits 0" 0
      (List.assoc "budget_forfeited" e.S.metrics)
  | None -> Alcotest.fail "no abort record in the stream"

(* --- post-mortem dumps --- *)

let test_dump_round_trip () =
  S.enable_recorder ();
  arm_with (fun c -> { c with Wd.stall_rounds = Some 1 });
  let trace = Obs.create () in
  Obs.Postmortem.configure ~trace ();
  let root = Obs.root trace "sbm" in
  let sp = Obs.span root "gradient" in
  Obs.Metrics.add (Option.get (Obs.Metrics.find "gradient.rounds")) 3;
  S.append ~severity:S.Debug ~id:"round-1" ~engine:"gradient"
    ~metrics:[ ("gain", 7) ]
    "round done";
  round_done 0 (* fires gradient-stall *);
  let json = Pm.to_json (Pm.capture ~reason:"unit \"test\"" ()) in
  match Pm.of_json json with
  | Error msg -> Alcotest.failf "dump does not parse: %s" msg
  | Ok d ->
    Alcotest.(check int) "version" 3 d.Pm.version;
    Alcotest.(check string) "escaped reason survives" "unit \"test\"" d.Pm.reason;
    Alcotest.(check (list string))
      "open spans outermost first" [ "sbm"; "gradient" ]
      (List.map (fun f -> f.Pm.name) d.Pm.span_stack);
    (match List.filter S.is_verdict d.Pm.events with
    | [ v ] ->
      Alcotest.(check string) "verdict rule" "gradient-stall" v.S.id;
      Alcotest.(check bool) "verdict action" true (v.S.severity = S.Warn)
    | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l));
    Alcotest.(check int) "counters from the trace" 3
      (List.assoc "gradient.rounds" d.Pm.counters);
    Alcotest.(check bool) "events survive" true
      (List.exists
         (fun e -> e.S.id = "round-1" && e.S.metrics = [ ("gain", 7) ])
         d.Pm.events);
    (* Canonical re-emission parses back to the same dump. *)
    (match Pm.of_json (Pm.to_json d) with
    | Ok d2 -> Alcotest.(check bool) "to_json round-trips" true (d = d2)
    | Error msg -> Alcotest.failf "re-emission does not parse: %s" msg);
    Obs.close sp;
    Obs.close root

let test_inspect_rejects_bad_input () =
  let err s =
    match Pm.of_json s with Ok _ -> "(ok)" | Error msg -> msg
  in
  Alcotest.(check string) "empty" "empty input" (err "");
  Alcotest.(check string) "whitespace only" "empty input" (err "  \n ");
  Alcotest.(check bool) "truncated JSON" true
    (String.length (err "{\"version\":1") > 0
    && err "{\"version\":1" <> "(ok)");
  Alcotest.(check string) "missing version"
    "not a post-mortem dump: missing \"version\"" (err "{\"events\":[]}");
  Alcotest.(check string) "future version"
    "unsupported dump version 99 (this sbm reads <= 3)"
    (err "{\"version\":99,\"events\":[]}")

let test_injected_failure_dumps () =
  S.enable_recorder ();
  let trace = Obs.create () in
  Obs.Postmortem.configure ~trace ();
  let aig = Aig.create () in
  let x = Array.init 4 (fun _ -> Aig.add_input aig) in
  let f = Aig.band aig (Aig.band aig x.(0) x.(1)) (Aig.bor aig x.(2) x.(3)) in
  ignore (Aig.add_output aig f);
  Sbm_core.Flow.inject_failure_after := Some 1;
  let root = Obs.root trace "run" in
  (match Sbm_core.Flow.run ~obs:root Sbm_core.Flow.Gradient aig with
  | (_ : Aig.t) -> Alcotest.fail "injected failure did not fire"
  | exception Failure msg ->
    Alcotest.(check bool) "failure names the pass" true
      (String.length msg > 0
      && String.sub msg 0 (min 26 (String.length msg))
         = "injected failure in pass '"));
  Alcotest.(check (option int))
    "hook is one-shot" None !Sbm_core.Flow.inject_failure_after;
  (* The dump taken at this instant must parse and show the failing
     pass still open — the crash handler's view. *)
  match Pm.of_json (Pm.to_json (Pm.capture ~reason:"injected" ())) with
  | Error msg -> Alcotest.failf "crash dump does not parse: %s" msg
  | Ok d ->
    Alcotest.(check (list string))
      "failing pass on the open stack" [ "run"; "gradient" ]
      (List.map (fun f -> f.Pm.name) d.Pm.span_stack);
    Alcotest.(check bool) "its start event is buffered" true
      (List.exists
         (fun e ->
           e.S.engine = "flow" && e.S.id = "gradient"
           && e.S.message = "pass start")
         d.Pm.events);
    (* Closing the root takes the crashed pass off the stack too. *)
    Obs.close root;
    Alcotest.(check (list string)) "stack cleared" [] (Obs.Span_stack.names ())

(* --- verdicts are recorder events, kept through wraparound --- *)

let count p l = List.length (List.filter p l)

let test_verdict_survives_wraparound () =
  S.enable_recorder ~capacity:16 ();
  arm_with (fun c -> { c with Wd.stall_rounds = Some 1 });
  let trace = Obs.create () in
  Obs.Postmortem.configure ~trace ();
  let root = Obs.root trace "flow" in
  round_done 0 (* fires gradient-stall *);
  for i = 1 to 120 do
    S.append ~engine:"test" ~metrics:[ ("i", i) ] "tick"
  done;
  let is_stall (e : S.record) = S.is_verdict e && e.S.id = "gradient-stall" in
  let dump = Pm.capture ~reason:"probe" () in
  Alcotest.(check int) "once in the post-mortem" 1 (count is_stall dump.Pm.events);
  (* 122 records (the round, its verdict and 120 ticks) in 16 slots,
     plus the kept verdict. *)
  Alcotest.(check int) "the ring still wrapped" (122 - 17) dump.Pm.dropped;
  let doc = Obs.to_json trace in
  let events =
    List.map S.record_of_json (Json.to_list (Json.member "events" (Json.parse doc)))
  in
  Alcotest.(check int) "once in the trace's events" 1 (count is_stall events);
  (match Chrome.convert doc with
  | Error msg -> Alcotest.fail msg
  | Ok chrome ->
    let instants =
      Json.to_list (Json.member "traceEvents" (Json.parse chrome))
      |> List.filter (fun e ->
             Json.str "ph" e = "i" && Json.str "name" e = "watchdog:gradient-stall")
    in
    Alcotest.(check int) "one Chrome instant" 1 (List.length instants));
  Obs.close root

(* A version-1 dump holds each verdict twice (its "watchdog" array and
   its ring event); one verdict's event was overwritten. Each renders
   once, the abort as an ERROR. *)
let test_v1_dump_verdicts_once () =
  match Pm.load "dump_v1.json" with
  | Error msg -> Alcotest.fail msg
  | Ok d ->
    Alcotest.(check int) "read as version 1" 1 d.Pm.version;
    let text = Fmt.str "%a" (Sbm_report.Inspect.pp ?last:None ~abs:false) d in
    let occurrences needle =
      let n = String.length needle in
      let rec go i acc =
        if i + n > String.length text then acc
        else go (i + 1) (if String.sub text i n = needle then acc + 1 else acc)
      in
      go 0 0
    in
    Alcotest.(check int) "the dropped verdict renders once" 1
      (occurrences "8 consecutive partitions bailed");
    Alcotest.(check int) "the ring's verdict renders once" 1
      (occurrences "pass 'mspf' open for");
    Alcotest.(check (list string)) "actions become severities" [ "warn"; "error" ]
      (List.map
         (fun e -> S.severity_to_string e.S.severity)
         (List.filter S.is_verdict d.Pm.events))

(* --- one stack: every pass-boundary consumer reads the same frames --- *)

let test_one_stack_feeds_every_consumer () =
  S.enable_recorder ();
  arm_with (fun c -> { c with Wd.pass_deadline_ms = Some 0.0 });
  S.enable_trail ();
  let trace = Obs.create () in
  Obs.Postmortem.configure ~trace ();
  let root = Obs.root trace "flow" in
  let outer = pass root "iteration-1" in
  (* A plain span between the passes: on the stack, not a pass. *)
  let step = Obs.span outer "step" in
  let inner = pass step "mspf" in
  Obs.partition_done ~engine:"mspf" ~index:0 ~structure:(fun () -> 1L) [];
  Unix.sleepf 0.001;
  Wd.poll ();
  let stack = Obs.Span_stack.names () in
  Alcotest.(check (list string))
    "the one stack" [ "flow"; "iteration-1"; "step"; "mspf" ] stack;
  (match Pm.of_json (Pm.to_json (Pm.capture ~reason:"probe" ())) with
  | Error msg -> Alcotest.failf "dump does not parse: %s" msg
  | Ok d ->
    Alcotest.(check (list string))
      "post-mortem span_stack is the stack" stack
      (List.map (fun f -> f.Pm.name) d.Pm.span_stack));
  close_pass inner;
  Obs.close step;
  close_pass outer;
  Obs.close root;
  Alcotest.(check (list string))
    "ledger paths are the pass frames" [ "iteration-1/mspf"; "iteration-1" ]
    (List.map (fun (r : Ledger.row) -> r.Ledger.path) (Obs.ledger trace));
  Alcotest.(check (list string))
    "trail labels are the pass frames"
    [ "iteration-1/mspf/mspf-partition-0"; "iteration-1/mspf"; "iteration-1" ]
    (List.map (fun (l : S.link) -> l.label) (S.trail ()));
  Alcotest.(check (list string))
    "deadline verdicts name the pass frames as each opens"
    [ "iteration-1"; "mspf" ]
    (List.map
       (fun (e : S.record) -> List.nth (String.split_on_char '\'' e.S.message) 1)
       (verdicts ()));
  Alcotest.(check (list string)) "empty at end" [] (Obs.Span_stack.names ())

(* --- one run, every view on: the views read the same records --- *)

(* sbm-low on ctrl with the recorder (a ring that does not wrap), the
   trail (in memory and in its file), a status file and a zero-deadline
   watchdog. Aborting changes the output, since every partition engine
   then skips its partitions, so the output is compared with a run
   under the same watchdog alone; a noting watchdog leaves it equal to
   an unobserved run. *)
let test_views_agree () =
  let aig = Sbm_epfl.Epfl.generate Sbm_epfl.Epfl.Ctrl in
  let flow () =
    Aig.fold_hash (Sbm_core.Flow.run (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) aig)
  in
  let arm action =
    Wd.arm { Wd.default_config with Wd.pass_deadline_ms = Some 0.0; action }
  in
  let observed action =
    let trail_path = Filename.temp_file "sbm_views" ".jsonl" in
    let status_path = Filename.temp_file "sbm_views_status" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        teardown ();
        Sys.remove trail_path;
        Sys.remove status_path)
      (fun () ->
        S.enable_recorder ~capacity:100_000 ();
        S.enable_trail ~path:trail_path ();
        arm action;
        Obs.Status.start ~interval_ms:20. status_path;
        let hash = flow () in
        let dump = Pm.capture ~reason:"probe" () in
        Obs.Status.stop ();
        let samples = Result.get_ok (Obs.Status.load status_path) in
        (hash, dump, samples, S.trail (), S.load_trail trail_path))
  in
  let alone action =
    Fun.protect ~finally:teardown (fun () ->
        arm action;
        flow ())
  in
  (* The views of one observed run read the same records. *)
  let agree what action =
    let hash, dump, samples, trail, file = observed action in
    let check msg = Alcotest.(check bool) (what ^ ": " ^ msg) true in
    check "the ring did not wrap" (dump.Pm.dropped = 0);
    let seqs = List.map (fun (r : S.record) -> r.seq) dump.Pm.events in
    check "records in sequence order" (List.sort_uniq compare seqs = seqs);
    check "the trail has pass records"
      (List.exists (fun (l : S.link) -> l.boundary = S.Pass) trail);
    check "exactly the boundary records are linked"
      (List.for_all
         (fun (r : S.record) ->
           (r.kind = S.Pass || r.kind = S.Merge) = (r.link <> None))
         dump.Pm.events);
    check "the trail is the stream's boundary records, in order"
      (trail = List.filter_map (fun (r : S.record) -> r.link) dump.Pm.events
      && List.for_all2 (fun i (l : S.link) -> l.index = i)
           (List.init (List.length trail) Fun.id) trail);
    check "the trail file holds the same records" (file = Ok trail);
    let captured = List.length (List.filter S.is_verdict dump.Pm.events) in
    let last = List.nth samples (List.length samples - 1) in
    check "the zero deadline gave verdicts" (captured > 0);
    check "the last status sample counts every verdict"
      (captured = last.Obs.Status.verdicts);
    (hash, trail)
  in
  let aborted, _ = agree "abort" Wd.Abort in
  Alcotest.(check bool) "observing leaves the aborted output alone" true
    (aborted = alone Wd.Abort);
  let noted, trail = agree "note" Wd.Note in
  Alcotest.(check bool) "note: the trail has merge records" true
    (List.exists (fun (l : S.link) -> l.boundary = S.Merge) trail);
  Alcotest.(check bool) "a noting run equals an unobserved run" true
    (noted = flow ())

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick (protecting test_ring_wraparound);
    Alcotest.test_case "disabled is a no-op" `Quick (protecting test_disabled_is_noop);
    Alcotest.test_case "event fields" `Quick (protecting test_event_fields);
    Alcotest.test_case "span stack follows obs" `Quick
      (protecting test_span_stack_follows_obs);
    Alcotest.test_case "deadline fires once per pass" `Quick
      (protecting test_deadline_fires_once_per_pass);
    Alcotest.test_case "bail streak" `Quick (protecting test_bail_streak);
    Alcotest.test_case "gradient stall" `Quick (protecting test_gradient_stall);
    Alcotest.test_case "abort lifecycle" `Quick (protecting test_abort_lifecycle);
    Alcotest.test_case "abort after a budget overrun forfeits 0" `Quick
      (protecting test_abort_after_overrun);
    Alcotest.test_case "dump round-trip" `Quick (protecting test_dump_round_trip);
    Alcotest.test_case "inspect rejects bad input" `Quick
      (protecting test_inspect_rejects_bad_input);
    Alcotest.test_case "injected failure dumps" `Quick
      (protecting test_injected_failure_dumps);
    Alcotest.test_case "one span stack feeds every consumer" `Quick
      (protecting test_one_stack_feeds_every_consumer);
    Alcotest.test_case "verdict survives ring wraparound" `Quick
      (protecting test_verdict_survives_wraparound);
    Alcotest.test_case "version-1 dump verdicts render once" `Quick
      test_v1_dump_verdicts_once;
    Alcotest.test_case "the stream's views agree on one run" `Quick
      test_views_agree;
  ]
