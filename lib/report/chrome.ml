(* Chrome/Perfetto trace-event exporter (contract in the .mli): spans
   become B/E pairs on one thread, status samples ("samples") "C"
   counter events, and recorder records ("events", verdicts included,
   read by the stream's one reader) "i" instants.

   v2 spans store durations, not start times, so starts are
   synthesized: roots are laid out sequentially from 0, children
   sequentially from their parent's start. Flow spans nest without
   gaps, so this matches the real timeline up to the untraced slack
   between siblings, which Perfetto shows as idle time in the
   parent. *)

module S = Sbm_obs.Stream
module Status = Sbm_obs.Status

(* One emitted trace event, after a comma unless it opens the array.
   [ts] is microseconds, the format's native unit. *)
let event b ~ph ~name ~ts ?scope ?args () =
  if Buffer.nth b (Buffer.length b - 1) <> '[' then Buffer.add_char b ',';
  Printf.bprintf b "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f"
    (Json.escape name) ph ts;
  Option.iter (Printf.bprintf b ",\"s\":\"%s\"") scope;
  Buffer.add_string b ",\"pid\":1,\"tid\":1";
  Option.iter (Printf.bprintf b ",\"args\":%s") args;
  Buffer.add_char b '}'

(* An args object from already-rendered member values. *)
let args_of pairs =
  let member (k, v) = Printf.sprintf "\"%s\":%s" (Json.escape k) v in
  "{" ^ String.concat "," (List.map member pairs) ^ "}"

let number n = Printf.sprintf "%g" (float_of_int n)
let quoted s = Printf.sprintf "\"%s\"" (Json.escape s)

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
let rec emit_span b ~t0 (n : Sbm_obs.node) =
  event b ~ph:"B" ~name:n.name ~ts:(t0 *. 1000.) ?args:(span_args n) ();
  let child_t = ref t0 in
  List.iter (fun c -> child_t := emit_span b ~t0:!child_t c) n.children;
  let t1 = t0 +. Sbm_obs.wall_ms n in
  event b ~ph:"E" ~name:n.name ~ts:(t1 *. 1000.) ();
  t1

(* Counter series from the status-file history: one C event per
   counter/gauge per sample, named by the metric. Perfetto renders
   each name as its own counter track. *)
let emit_samples b (samples : Status.sample list) =
  List.iter
    (fun (s : Status.sample) ->
      List.iter
        (fun (k, n) ->
          event b ~ph:"C" ~name:k ~ts:(s.t_ms *. 1000.)
            ~args:(args_of [ ("value", number n) ])
            ())
        (s.counters @ s.gauges))
    samples

let emit_events b (events : S.record list) =
  List.iter
    (fun (e : S.record) ->
      let name = if e.id = "" then e.engine else e.engine ^ ":" ^ e.id in
      let args =
        [ ("message", quoted e.message);
          ("severity", quoted (S.severity_to_string e.severity)) ]
        @ List.map (fun (k, n) -> (k, number n)) e.metrics
      in
      event b ~ph:"i" ~name ~ts:(Json.ms_of_ns e.t_ns *. 1000.) ~scope:"t"
        ~args:(args_of args) ())
    events

let of_trace j = function
  | [] -> Error "trace: no spans (is this a v2 trace report?)"
  | spans ->
    let b = Buffer.create 65536 in
    Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    (* Metadata first: names the process/thread in the Perfetto UI. *)
    event b ~ph:"M" ~name:"process_name" ~ts:0. ~args:"{\"name\":\"sbm\"}" ();
    event b ~ph:"M" ~name:"thread_name" ~ts:0. ~args:"{\"name\":\"flow\"}" ();
    let t = ref 0.0 in
    List.iter (fun s -> t := emit_span b ~t0:!t s) spans;
    let all key f = List.map f (Json.to_list (Json.member key j)) in
    emit_samples b (all "samples" Status.sample_of_json);
    emit_events b (all "events" S.record_of_json);
    Buffer.add_string b "]}";
    Ok (Buffer.contents b)

let convert src =
  match Json.parse src with
  | exception Json.Bad msg -> Error ("trace: " ^ msg)
  | j -> (
    match Sbm_obs.of_json_value j with
    | Error msg -> Error ("trace: " ^ msg)
    | Ok spans -> of_trace j spans)
