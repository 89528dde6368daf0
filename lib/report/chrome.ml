(* Chrome/Perfetto trace-event exporter.

   Converts a v2 telemetry trace (the `sbm opt --report trace.json`
   document) into the Trace Event Format that ui.perfetto.dev and
   chrome://tracing load directly:
   - every span becomes a B/E duration-event pair on one thread;
   - every live-telemetry sample ("samples", written when the run had
     `--status`) becomes one "C" counter event per counter and gauge;
   - every flight-recorder event ("events") and watchdog verdict
     ("verdicts") becomes an "i" instant event.

   v2 spans store durations, not start times (the telemetry layer
   records wall_ms per span), so start timestamps are synthesized:
   root spans are laid out sequentially from 0, children sequentially
   from their parent's start. Within a flow trace spans nest without
   gaps, so the reconstruction matches the real timeline up to the
   untraced slack between siblings — which Perfetto shows as idle
   space inside the parent, exactly where it was. *)

let escape = Sbm_obs.Json_out.escape

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

(* The numeric members of object [key] of [j], in document order. *)
let num_fields key j =
  match Json.member key j with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) -> match v with Json.Num n -> Some (k, n) | _ -> None)
      fields
  | _ -> []

(* An args object from already-rendered member values. *)
let args_of pairs =
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) v) pairs))

let span_args j =
  let sizes =
    List.filter_map
      (fun key ->
        Option.map (fun v -> (key, string_of_int v))
          (Json.to_int (Json.member key j)))
      [ "size_before"; "size_after"; "depth_before"; "depth_after" ]
  in
  let counters =
    List.map (fun (k, n) -> (k, Printf.sprintf "%g" n)) (num_fields "counters" j)
  in
  match sizes @ counters with [] -> None | pairs -> Some (args_of pairs)

(* Spans: B at the synthesized start, E at start + wall_ms. Children
   are laid out sequentially from the parent's start (v2 stores no
   per-span start time). Returns this span's end, so the caller can
   place the next sibling after it. *)
let rec emit_span b ~first ~t0 j =
  let wall_ms =
    Option.value ~default:0.0 (Json.to_float (Json.member "wall_ms" j))
  in
  let name =
    Option.value ~default:"?" (Json.to_str (Json.member "name" j))
  in
  event b ~first:!first ~ph:"B" ~name ~ts:(t0 *. 1000.)
    ?args:(span_args j) ();
  first := false;
  let child_t = ref t0 in
  List.iter
    (fun c -> child_t := emit_span b ~first ~t0:!child_t c)
    (Json.to_list (Json.member "children" j));
  let t1 = t0 +. wall_ms in
  event b ~first:false ~ph:"E" ~name ~ts:(t1 *. 1000.) ();
  t1

(* Counter series from the status-sampler history: one C event per
   counter/gauge per sample, named by the metric. Perfetto renders
   each name as its own counter track. *)
let emit_samples b ~first samples =
  List.iter
    (fun s ->
      let t_ms =
        Option.value ~default:0.0 (Json.to_float (Json.member "t_ms" s))
      in
      let series key =
        List.iter
          (fun (k, n) ->
            event b ~first:!first ~ph:"C" ~name:k ~ts:(t_ms *. 1000.)
              ~args:(Printf.sprintf "{\"value\":%g}" n)
              ();
            first := false)
          (num_fields key s)
      in
      series "counters";
      series "gauges")
    samples

let metric_args ?(extra = []) j =
  args_of
    (extra
    @ List.map (fun (k, n) -> (k, Printf.sprintf "%g" n)) (num_fields "metrics" j))

let emit_events b ~first events =
  List.iter
    (fun e ->
      let t_ms =
        Option.value ~default:0.0 (Json.to_float (Json.member "t_ms" e))
      in
      let engine =
        Option.value ~default:"?" (Json.to_str (Json.member "engine" e))
      in
      let id = Option.value ~default:"" (Json.to_str (Json.member "id" e)) in
      let name = if id = "" then engine else engine ^ ":" ^ id in
      let extra =
        List.filter_map
          (fun key ->
            Option.map
              (fun v -> (key, Printf.sprintf "\"%s\"" (escape v)))
              (Json.to_str (Json.member key e)))
          [ "message"; "severity" ]
      in
      event b ~first:!first ~ph:"i" ~name ~ts:(t_ms *. 1000.) ~scope:"t"
        ~args:(metric_args ~extra e) ();
      first := false)
    events

let emit_verdicts b ~first verdicts =
  List.iter
    (fun v ->
      let t_ms =
        Option.value ~default:0.0 (Json.to_float (Json.member "t_ms" v))
      in
      let rule =
        Option.value ~default:"?" (Json.to_str (Json.member "rule" v))
      in
      let extra =
        List.filter_map
          (fun key ->
            Option.map
              (fun s -> (key, Printf.sprintf "\"%s\"" (escape s)))
              (Json.to_str (Json.member key v)))
          [ "detail"; "action" ]
      in
      event b ~first:!first ~ph:"i" ~name:("watchdog:" ^ rule)
        ~ts:(t_ms *. 1000.) ~scope:"p"
        ~args:(metric_args ~extra v) ();
      first := false)
    verdicts

let convert src =
  match Json.parse src with
  | exception Json.Bad msg -> Error ("trace: " ^ msg)
  | j ->
    let spans = Json.to_list (Json.member "spans" j) in
    if spans = [] then Error "trace: no spans (is this a v2 trace report?)"
    else begin
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
      emit_samples b ~first (Json.to_list (Json.member "samples" j));
      emit_events b ~first (Json.to_list (Json.member "events" j));
      emit_verdicts b ~first (Json.to_list (Json.member "verdicts" j));
      Buffer.add_string b "]}";
      Ok (Buffer.contents b)
    end
