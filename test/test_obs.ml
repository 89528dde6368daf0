(* The telemetry layer: span nesting, counter aggregation, value
   distributions, GC deltas, reporter output, and the contract the
   flow scripts rely on (one span per scripted pass, size deltas
   chaining between passes). The JSON parser used to round-trip the
   reporters lives in the report library. *)

module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module Rng = Sbm_util.Rng
module Json = Sbm_report.Json
module M = Sbm_obs.Metrics

(* Counters live only in the registry, so the span tests bump
   registered handles like real call sites do. *)
let counter name = M.counter ~engine:"test" ("test.obs." ^ name) name
let m_conflicts = counter "conflicts"
let m_decisions = counter "decisions"
let m_nodes = counter "nodes"
let m_store = counter "store"
let m_plain = counter "plain"
let m_weird = counter "weird;name=x"
let m_backslash = counter "back\\slash"

(* --- span mechanics --- *)

let test_null_sink () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  let child = Obs.span Obs.null "child" in
  Alcotest.(check bool) "children of null disabled" false (Obs.enabled child);
  (* All operations on the sink are no-ops and must not raise. *)
  Obs.close child;
  Obs.close_pass ~size:1 ~depth:1 (Obs.pass ~size:1 ~depth:1 Obs.null "p")

let test_span_nesting () =
  let trace = Obs.create () in
  let root = Obs.root ~size:100 trace "flow" in
  Alcotest.(check bool) "root enabled" true (Obs.enabled root);
  let a = Obs.span ~size:100 root "pass-a" in
  Obs.close ~size:90 a;
  let b = Obs.span ~size:90 root "pass-b" in
  let b1 = Obs.span b "inner" in
  Obs.close b1;
  Obs.close ~size:80 b;
  Obs.close ~size:80 root;
  match Obs.spans trace with
  | [ r ] ->
    Alcotest.(check string) "root name" "flow" r.Obs.name;
    Alcotest.(check int) "two children" 2 (List.length r.Obs.children);
    let names = List.map (fun n -> n.Obs.name) r.Obs.children in
    Alcotest.(check (list string)) "child order" [ "pass-a"; "pass-b" ] names;
    let b = List.nth r.Obs.children 1 in
    Alcotest.(check int) "grandchild" 1 (List.length b.Obs.children);
    Alcotest.(check (option int)) "size before" (Some 90) b.Obs.size_before;
    Alcotest.(check (option int)) "size after" (Some 80) b.Obs.size_after;
    Alcotest.(check bool) "wall time measured" true (r.Obs.wall_ns >= 0L)
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)

(* A span freezes once, at its first close: closing it again changes
   neither its exit size nor its time, counters or ledger row. *)
let test_second_close_is_noop () =
  let trace = Obs.create () in
  let root = Obs.root trace "r" in
  let c = Obs.span ~size:9 root "c" in
  Obs.close ~size:5 c;
  M.add m_plain 1;
  Obs.close ~size:7 c;
  let p = Obs.pass ~size:5 ~depth:2 root "p" in
  Obs.close_pass ~size:4 ~depth:2 p;
  Obs.close_pass ~size:3 ~depth:2 p;
  Obs.close root;
  let first = Obs.spans trace in
  (match first with
  | [ { Obs.children = [ c; p ]; _ } ] ->
    Alcotest.(check (option int)) "first close's size" (Some 5) c.Obs.size_after;
    Alcotest.(check (list (pair string int)))
      "no counter after the first close" [] c.Obs.counters;
    Alcotest.(check (option int)) "first close_pass's size" (Some 4)
      p.Obs.size_after
  | _ -> Alcotest.fail "expected one root with two children");
  Alcotest.(check (list int)) "one row, at the first close_pass" [ 4 ]
    (List.map (fun (r : Obs.Ledger.row) -> r.Obs.Ledger.size_after)
       (Obs.ledger trace));
  Alcotest.(check bool) "a closed trace is frozen" true (first = Obs.spans trace)

let test_counter_totals () =
  let trace = Obs.create () in
  let root = Obs.root trace "r" in
  M.add m_conflicts 3;
  let child = Obs.span root "c" in
  M.add m_conflicts 4;
  M.add m_decisions 1;
  M.add m_decisions 9;
  Obs.close child;
  Obs.close root;
  Alcotest.(check int) "summed over tree" 7 (Obs.total trace "test.obs.conflicts");
  Alcotest.(check int) "incr + add" 10 (Obs.total trace "test.obs.decisions");
  Alcotest.(check int) "untouched counter" 0 (Obs.total trace "nope");
  let totals = Obs.totals trace in
  Alcotest.(check (list string))
    "totals sorted" [ "test.obs.conflicts"; "test.obs.decisions" ]
    (List.map fst totals)

(* The registry is the one counter store: a span's own counters are
   its registry delta minus its children's, the totals are the delta
   over the root, and an add made outside every span still counts. *)
let test_counter_store () =
  let v0 = M.value m_store in
  let trace = Obs.create () in
  let root = Obs.root trace "r" in
  M.add m_store 2;
  let child = Obs.span root "c" in
  M.add m_store 5;
  M.add m_store 1;
  let grandchild = Obs.span child "g" in
  M.add m_store 0;
  Obs.close grandchild;
  Obs.close child;
  Obs.close root;
  let own (n : Obs.node) = List.assoc_opt "test.obs.store" n.Obs.counters in
  (match Obs.spans trace with
  | [ r ] ->
    let c = List.hd r.Obs.children in
    let g = List.hd c.Obs.children in
    Alcotest.(check (option int)) "root: delta minus child" (Some 2) (own r);
    Alcotest.(check (option int))
      "child: its delta, every add included, minus grandchild" (Some 6) (own c);
    Alcotest.(check (option int)) "a bump by 0 is still listed" (Some 0) (own g)
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l));
  Alcotest.(check (list (pair string int)))
    "totals are the registry delta over the root"
    [ ("test.obs.store", M.value m_store - v0) ]
    (Obs.totals trace);
  M.add m_store 4;
  Alcotest.(check int) "an add outside every span reaches the registry" (v0 + 12)
    (M.value m_store)

let test_monotonic_clock () =
  let t0 = Obs.monotonic_ns () in
  let t1 = Obs.monotonic_ns () in
  Alcotest.(check bool) "clock does not go backwards" true (t1 >= t0)

(* --- reporters --- *)

let sample_trace () =
  let trace = Obs.create () in
  let root = Obs.root ~size:50 ~depth:7 trace "sbm" in
  let a = Obs.span ~size:50 root "pa\"ss" in
  M.add m_nodes 12;
  M.add m_conflicts 2;
  Obs.close ~size:44 a;
  Obs.close ~size:44 ~depth:6 root;
  trace

let test_json_round_trip () =
  let trace = sample_trace () in
  let json = Json.parse (Obs.to_json trace) in
  Alcotest.(check (option int)) "version" (Some 2) Json.(to_int (member "version" json));
  let totals = Json.member "totals" json in
  Alcotest.(check (option int))
    "total test.obs.nodes" (Some 12)
    Json.(to_int (Option.bind totals (member "test.obs.nodes")));
  (match Json.to_list (Json.member "spans" json) with
  | [ root ] ->
    Alcotest.(check (option string)) "root name" (Some "sbm")
      Json.(to_str (member "name" root));
    Alcotest.(check (option int)) "size_before" (Some 50)
      Json.(to_int (member "size_before" root));
    Alcotest.(check (option int)) "depth_after" (Some 6)
      Json.(to_int (member "depth_after" root));
    (match Json.to_list (Json.member "children" root) with
    | [ child ] ->
      (* The escaped quote in the span name must survive. *)
      Alcotest.(check (option string)) "escaped name" (Some "pa\"ss")
        Json.(to_str (member "name" child));
      Alcotest.(check (option int)) "counter" (Some 2)
        Json.(to_int (Option.bind (Json.member "counters" child) (Json.member "test.obs.conflicts")))
    | l -> Alcotest.failf "expected 1 child, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_jsonl_and_csv () =
  let trace = sample_trace () in
  let jsonl = Obs.to_jsonl trace in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  (* Every line parses as standalone JSON and carries a path. *)
  let paths =
    List.map (fun l -> Json.(to_str (member "path" (Json.parse l)))) lines
  in
  Alcotest.(check (list (option string)))
    "flattened paths"
    [ Some "sbm"; Some "sbm/pa\"ss" ]
    paths;
  let csv = Obs.to_csv trace in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
    Alcotest.(check string) "csv header"
      "path,wall_ms,size_before,size_after,depth_before,depth_after,counters"
      header
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check int) "csv rows" 3
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)))

let test_write_by_extension () =
  let trace = sample_trace () in
  let tmp suffix = Filename.temp_file "sbm_obs_test" suffix in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let j = tmp ".json" and l = tmp ".jsonl" and c = tmp ".csv" in
  Obs.write trace j;
  Obs.write trace l;
  Obs.write trace c;
  Alcotest.(check string) "json file" (Obs.to_json trace) (read j);
  Alcotest.(check string) "jsonl file" (Obs.to_jsonl trace) (read l);
  Alcotest.(check string) "csv file" (Obs.to_csv trace) (read c);
  List.iter Sys.remove [ j; l; c ]

let test_json_gc_and_histograms () =
  let trace = sample_trace () in
  let json = Json.parse (Obs.to_json trace) in
  (match Json.to_list (Json.member "spans" json) with
  | [ root ] ->
    let gc = Json.member "gc" root in
    Alcotest.(check bool) "gc present" true (gc <> None);
    Alcotest.(check bool)
      "gc minor_words is a number" true
      (Json.to_float (Option.bind gc (Json.member "minor_words")) <> None)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  let hist = Json.member "histograms" json in
  Alcotest.(check bool)
    "histogram entry per span name" true
    (List.map fst (Json.to_obj hist) = [ "pa\"ss"; "sbm" ]);
  Alcotest.(check (option int))
    "count" (Some 1)
    Json.(to_int (Option.bind (Option.bind hist (member "sbm")) (member "count")))

(* --- value distributions --- *)

let test_percentile_known_inputs () =
  let check msg expected values p =
    Alcotest.(check (float 1e-9)) msg expected (Obs.percentile values p)
  in
  check "median of 1..4 (nearest rank)" 2.0 [| 1.0; 2.0; 3.0; 4.0 |] 0.5;
  check "median of 1..5" 3.0 [| 5.0; 1.0; 4.0; 2.0; 3.0 |] 0.5;
  check "p90 of 1..10" 9.0 (Array.init 10 (fun i -> float_of_int (i + 1))) 0.9;
  check "p0 is the minimum" 1.0 [| 3.0; 1.0; 2.0 |] 0.0;
  check "p100 is the maximum" 3.0 [| 3.0; 1.0; 2.0 |] 1.0;
  check "singleton" 7.5 [| 7.5 |] 0.9;
  Alcotest.check_raises "empty sample rejected"
    (Invalid_argument "Sbm_obs.percentile: empty sample") (fun () ->
      ignore (Obs.percentile [||] 0.5));
  Alcotest.check_raises "p out of range rejected"
    (Invalid_argument "Sbm_obs.percentile: p outside [0,1]") (fun () ->
      ignore (Obs.percentile [| 1.0 |] 1.5))

let test_histograms_group_by_name () =
  let trace = Obs.create () in
  let root = Obs.root trace "flow" in
  for _ = 1 to 3 do
    Obs.close (Obs.span root "move")
  done;
  Obs.close (Obs.span root "other");
  Obs.close root;
  match Obs.histograms trace with
  | [ ("flow", f); ("move", m); ("other", o) ] ->
    Alcotest.(check int) "3 samples of move" 3 m.Obs.count;
    Alcotest.(check int) "1 sample of flow" 1 f.Obs.count;
    Alcotest.(check int) "1 sample of other" 1 o.Obs.count;
    Alcotest.(check bool) "ordered percentiles" true
      (0.0 <= m.Obs.p50_ms && m.Obs.p50_ms <= m.Obs.p90_ms
      && m.Obs.p90_ms <= m.Obs.max_ms
      && m.Obs.max_ms <= m.Obs.total_ms +. 1e-9)
  | l ->
    Alcotest.failf "expected histograms for flow/move/other, got %d entries"
      (List.length l)

let test_gc_delta_captured () =
  let trace = Obs.create () in
  let root = Obs.root trace "alloc" in
  (* Allocate enough to move the minor-words counter for sure. *)
  let junk = Sys.opaque_identity (List.init 50_000 (fun i -> (i, i))) in
  ignore (Sys.opaque_identity (List.length junk));
  Obs.close root;
  match Obs.spans trace with
  | [ n ] ->
    Alcotest.(check bool) "minor words counted" true (n.Obs.gc.Obs.minor_words > 0.0);
    Alcotest.(check bool) "collections non-negative" true
      (n.Obs.gc.Obs.minor_collections >= 0 && n.Obs.gc.Obs.major_collections >= 0)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* --- CSV escaping --- *)

(* A strict RFC 4180 row parser: unquoted cells up to the next comma,
   quoted cells with doubled inner quotes. *)
let parse_csv_row line =
  let n = String.length line in
  let cells = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    cells := Buffer.contents buf :: !cells;
    Buffer.clear buf
  in
  let i = ref 0 in
  while !i < n do
    if Buffer.length buf = 0 && line.[!i] = '"' then begin
      (* quoted cell *)
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then Alcotest.fail "unterminated quoted cell"
        else if line.[!i] = '"' then
          if !i + 1 < n && line.[!i + 1] = '"' then begin
            Buffer.add_char buf '"';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf line.[!i];
          incr i
        end
      done
    end
    else if line.[!i] = ',' then begin
      flush ();
      incr i
    end
    else begin
      Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !cells

(* Invert the [k=v;k=v] packing, honouring backslash escapes. *)
let parse_counters_cell cell =
  let n = String.length cell in
  let out = ref [] in
  let key = Buffer.create 16 in
  let value = Buffer.create 8 in
  let in_value = ref false in
  let flush () =
    if Buffer.length key > 0 || Buffer.length value > 0 then
      out := (Buffer.contents key, int_of_string (Buffer.contents value)) :: !out;
    Buffer.clear key;
    Buffer.clear value;
    in_value := false
  in
  let i = ref 0 in
  while !i < n do
    (match cell.[!i] with
    | '\\' when !i + 1 < n ->
      incr i;
      Buffer.add_char (if !in_value then value else key) cell.[!i]
    | ';' -> flush ()
    | '=' when not !in_value -> in_value := true
    | c -> Buffer.add_char (if !in_value then value else key) c);
    incr i
  done;
  flush ();
  List.rev !out

let test_csv_escaping_round_trip () =
  let trace = Obs.create () in
  let root = Obs.root ~size:10 trace "pass,one" in
  M.add m_weird 7;
  M.add m_plain 3;
  M.add m_backslash 1;
  Obs.close ~size:8 root;
  let csv = Obs.to_csv trace in
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) with
  | [ header; row ] ->
    Alcotest.(check int)
      "header and row have the same arity"
      (List.length (parse_csv_row header))
      (List.length (parse_csv_row row));
    (match parse_csv_row row with
    | [ path; _wall; size_before; size_after; _d0; _d1; counters ] ->
      Alcotest.(check string) "comma in span name survives" "pass,one" path;
      Alcotest.(check string) "size before" "10" size_before;
      Alcotest.(check string) "size after" "8" size_after;
      Alcotest.(check (list (pair string int)))
        "counters unpack exactly"
        [
          ("test.obs.back\\slash", 1); ("test.obs.plain", 3);
          ("test.obs.weird;name=x", 7);
        ]
        (parse_counters_cell counters)
    | cells -> Alcotest.failf "expected 7 cells, got %d" (List.length cells))
  | lines -> Alcotest.failf "expected 2 csv lines, got %d" (List.length lines)

(* --- the flow contract --- *)

let flow_pass_names =
  [
    "baseline"; "gradient"; "hetero-kernel"; "mspf"; "boolean-difference";
    "sat-sweep";
  ]

let test_flow_records_pass_spans () =
  let rng = Rng.create 606 in
  let aig = Helpers.random_xor_aig ~inputs:7 ~gates:45 ~outputs:4 rng in
  let trace = Obs.create () in
  let root = Obs.root ~size:(Aig.size aig) trace "sbm-low" in
  let optimized = Sbm_core.Flow.sbm_once ~obs:root aig in
  Obs.close ~size:(Aig.size optimized) root;
  (match Obs.spans trace with
  | [ r ] -> (
    match r.Obs.children with
    | [ iter ] ->
      Alcotest.(check string) "iteration span" "iteration-1" iter.Obs.name;
      (* One child span per scripted pass, in script order. *)
      Alcotest.(check (list string))
        "one span per pass" flow_pass_names
        (List.map (fun n -> n.Obs.name) iter.Obs.children);
      (* Deltas chain: size_after of pass i = size_before of pass
         i+1, and every pass records both endpoints. *)
      let rec chain = function
        | a :: (b : Obs.node) :: rest ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s -> %s size chain" a.Obs.name b.Obs.name)
            a.Obs.size_after b.Obs.size_before;
          chain (b :: rest)
        | [ last ] ->
          Alcotest.(check (option int))
            "last pass exits at the iteration's exit size" last.Obs.size_after
            iter.Obs.size_after
        | [] -> ()
      in
      List.iter
        (fun (n : Obs.node) ->
          Alcotest.(check bool)
            (n.Obs.name ^ " measured") true
            (n.Obs.size_before <> None && n.Obs.size_after <> None
           && n.Obs.depth_before <> None && n.Obs.depth_after <> None))
        iter.Obs.children;
      chain iter.Obs.children;
      (* The engines actually reported work. *)
      Alcotest.(check bool)
        "gradient counters present" true
        (Obs.total trace "gradient.moves_tried" > 0);
      Alcotest.(check bool)
        "kernel counters present" true (Obs.total trace "kernel.trials" > 0)
    | l -> Alcotest.failf "expected 1 iteration span, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l));
  (* The full script at High effort: both iterations run the same
     passes, in script order. *)
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:3 rng in
  let trace = Obs.create () in
  let root = Obs.root trace "sbm" in
  ignore (Sbm_core.Flow.sbm ~obs:root ~effort:Sbm_core.Flow.High aig);
  Obs.close root;
  match Obs.spans trace with
  | [ r ] ->
    Alcotest.(check (list string))
      "two iterations" [ "iteration-1"; "iteration-2" ]
      (List.map (fun n -> n.Obs.name) r.Obs.children);
    List.iter
      (fun (iter : Obs.node) ->
        Alcotest.(check (list string))
          (iter.Obs.name ^ " passes at High") flow_pass_names
          (List.map (fun n -> n.Obs.name) iter.Obs.children))
      r.Obs.children
  | l -> Alcotest.failf "expected 1 sbm root, got %d" (List.length l)

let test_flow_disabled_obs_is_null () =
  (* The default path records nothing and still optimizes. *)
  let rng = Rng.create 607 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:25 ~outputs:3 rng in
  let optimized = Sbm_core.Flow.run (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) aig in
  Helpers.assert_equiv_exhaustive ~msg:"typed flow run" aig optimized

let test_script_string_round_trip () =
  List.iter
    (fun script ->
      let s = Sbm_core.Flow.to_string script in
      match Sbm_core.Flow.of_string s with
      | Some script' ->
        Alcotest.(check string)
          (s ^ " round-trips") s
          (Sbm_core.Flow.to_string script')
      | None -> Alcotest.failf "of_string failed on %s" s)
    Sbm_core.Flow.all;
  Alcotest.(check bool) "unknown flow rejected" true
    (Sbm_core.Flow.of_string "resyn2" = None)

let suite =
  [
    Alcotest.test_case "null sink" `Quick test_null_sink;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "second close is a no-op" `Quick test_second_close_is_noop;
    Alcotest.test_case "counter totals" `Quick test_counter_totals;
    Alcotest.test_case "registry is the counter store" `Quick test_counter_store;
    Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json gc and histograms" `Quick test_json_gc_and_histograms;
    Alcotest.test_case "percentile math" `Quick test_percentile_known_inputs;
    Alcotest.test_case "histograms group by name" `Quick test_histograms_group_by_name;
    Alcotest.test_case "gc deltas" `Quick test_gc_delta_captured;
    Alcotest.test_case "csv escaping round-trip" `Quick test_csv_escaping_round_trip;
    Alcotest.test_case "jsonl and csv" `Quick test_jsonl_and_csv;
    Alcotest.test_case "write by extension" `Quick test_write_by_extension;
    Alcotest.test_case "flow records pass spans" `Quick test_flow_records_pass_spans;
    Alcotest.test_case "flow with obs off" `Quick test_flow_disabled_obs_is_null;
    Alcotest.test_case "script strings" `Quick test_script_string_round_trip;
  ]
