(* Chrome/Perfetto trace-event exporter.

   Converts a telemetry trace (the `sbm opt --report trace.json`
   document, read back by Sbm_obs.of_json_value) into the Trace Event
   Format that ui.perfetto.dev and chrome://tracing load directly:
   - every span becomes a B/E duration-event pair on one thread;
   - every live-telemetry sample ("samples", written when the run had
     `--status`) becomes one "C" counter event per counter and gauge;
   - every flight-recorder event ("events"), watchdog verdicts
     included, becomes an "i" instant event, read through the
     recorder's own reader.

   v2 spans store durations, not start times (the telemetry layer
   records wall_ms per span), so start timestamps are synthesized:
   root spans are laid out sequentially from 0, children sequentially
   from their parent's start. Within a flow trace spans nest without
   gaps, so the reconstruction matches the real timeline up to the
   untraced slack between siblings — which Perfetto shows as idle
   space inside the parent, exactly where it was. *)

module FR = Sbm_obs.Flight_recorder
module Status = Sbm_obs.Status

let escape = Json.escape

(* One emitted trace event. [ts] is microseconds, the format's native
   unit. *)
let event b ~first ~ph ~name ~ts ?dur ?(pid = 1) ?(tid = 1) ?scope ?args () =
  if not first then Buffer.add_char b ',';
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f" (escape name)
       ph ts);
  (match dur with
  | Some d -> Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" d)
  | None -> ());
  (match scope with
  | Some s -> Buffer.add_string b (Printf.sprintf ",\"s\":\"%s\"" s)
  | None -> ());
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid tid);
  (match args with
  | Some a ->
    Buffer.add_string b ",\"args\":";
    Buffer.add_string b a
  | None -> ());
  Buffer.add_char b '}'

(* An args object from already-rendered member values. *)
let args_of pairs =
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) v) pairs))

let number n = Printf.sprintf "%g" (float_of_int n)
let quoted s = Printf.sprintf "\"%s\"" (escape s)

let span_args (n : Sbm_obs.node) =
  let sizes =
    List.filter_map
      (fun (key, v) -> Option.map (fun v -> (key, string_of_int v)) v)
      [ ("size_before", n.size_before); ("size_after", n.size_after);
        ("depth_before", n.depth_before); ("depth_after", n.depth_after) ]
  in
  let counters = List.map (fun (k, v) -> (k, number v)) n.counters in
  match sizes @ counters with [] -> None | pairs -> Some (args_of pairs)

(* Spans: B at the synthesized start, E at start + wall_ms. Children
   are laid out sequentially from the parent's start (v2 stores no
   per-span start time). Returns this span's end, so the caller can
   place the next sibling after it. *)
let rec emit_span b ~first ~t0 (n : Sbm_obs.node) =
  event b ~first:!first ~ph:"B" ~name:n.name ~ts:(t0 *. 1000.)
    ?args:(span_args n) ();
  first := false;
  let child_t = ref t0 in
  List.iter (fun c -> child_t := emit_span b ~first ~t0:!child_t c) n.children;
  let t1 = t0 +. Sbm_obs.wall_ms n in
  event b ~first:false ~ph:"E" ~name:n.name ~ts:(t1 *. 1000.) ();
  t1

(* Counter series from the status-file history: one C event per
   counter/gauge per sample, named by the metric. Perfetto renders
   each name as its own counter track. *)
let emit_samples b ~first (samples : Status.sample list) =
  List.iter
    (fun (s : Status.sample) ->
      List.iter
        (fun (k, n) ->
          event b ~first:!first ~ph:"C" ~name:k ~ts:(s.t_ms *. 1000.)
            ~args:(args_of [ ("value", number n) ])
            ();
          first := false)
        (s.counters @ s.gauges))
    samples

let emit_events b ~first (events : FR.event list) =
  List.iter
    (fun (e : FR.event) ->
      let name = if e.id = "" then e.engine else e.engine ^ ":" ^ e.id in
      let args =
        [ ("message", quoted e.message);
          ("severity", quoted (FR.severity_to_string e.severity)) ]
        @ List.map (fun (k, n) -> (k, number n)) e.metrics
      in
      event b ~first:!first ~ph:"i" ~name ~ts:(Json.ms_of_ns e.t_ns *. 1000.)
        ~scope:"t" ~args:(args_of args) ();
      first := false)
    events

let of_trace j = function
  | [] -> Error "trace: no spans (is this a v2 trace report?)"
  | spans ->
    let b = Buffer.create 65536 in
    Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    (* Metadata first: names the process/thread in the Perfetto UI. *)
    event b ~first:true ~ph:"M" ~name:"process_name" ~ts:0.
      ~args:"{\"name\":\"sbm\"}" ();
    event b ~first:false ~ph:"M" ~name:"thread_name" ~ts:0.
      ~args:"{\"name\":\"flow\"}" ();
    let first = ref false in
    let t = ref 0.0 in
    List.iter (fun s -> t := emit_span b ~first ~t0:!t s) spans;
    let all key f = List.map f (Json.to_list (Json.member key j)) in
    emit_samples b ~first (all "samples" Status.sample_of_json);
    emit_events b ~first (all "events" FR.event_of_json);
    Buffer.add_string b "]}";
    Ok (Buffer.contents b)

let convert src =
  match Json.parse src with
  | exception Json.Bad msg -> Error ("trace: " ^ msg)
  | j -> (
    match Sbm_obs.of_json_value j with
    | Error msg -> Error ("trace: " ^ msg)
    | Ok spans -> of_trace j spans)
