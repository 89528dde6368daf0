(* The live status file (contract in the .mli): the whole retained
   history is rewritten through a rename, so a reader opens either the
   previous complete file or the new one, never a torn line. *)

type sample = {
  seq : int;
  t_ms : float; (* on the stream's clock *)
  pass : string; (* open-span path, outermost first, ">"-joined *)
  counters : (string * int) list;
  gauges : (string * int) list;
  verdicts : int;
  abort : bool;
  finished : bool;
}

let max_history = 600

(* --- JSON emission --- *)

let add_pairs b key pairs =
  Buffer.add_string b (Printf.sprintf ",\"%s\":" key);
  Json.buf_counters b pairs

let sample_to_json s =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"t_ms\":%.3f,\"pass\":\"%s\"" s.seq s.t_ms
       (Json.escape s.pass));
  add_pairs b "counters" s.counters;
  add_pairs b "gauges" s.gauges;
  Buffer.add_string b
    (Printf.sprintf ",\"verdicts\":%d,\"abort\":%b,\"finished\":%b}" s.verdicts
       s.abort s.finished);
  Buffer.contents b

let sample_of_json j =
  {
    seq = Json.int "seq" j;
    t_ms = Json.num "t_ms" j;
    pass = Json.str "pass" j;
    counters = Json.counters "counters" j;
    gauges = Json.counters "gauges" j;
    verdicts = Json.int "verdicts" j;
    abort = Json.flag "abort" j;
    finished = Json.flag "finished" j;
  }

(* Lines that fail to parse are skipped ([Json.load_lines]): the
   atomic-rename protocol makes torn lines impossible from the writer
   itself, but a reader racing a rewriting writer (NFS, a copied file)
   can still see a truncated final line, and an unrelated file should
   degrade, not crash. *)
let load path =
  match Json.load_lines path with
  | Error _ as e -> e
  | Ok [] -> Error (path ^ ": no samples")
  | Ok js -> Ok (List.map sample_of_json js)

(* --- the status file --- *)

type st = {
  path : string;
  interval_ns : int64;
  mutable next_ns : int64; (* monotonic clock of the next due sample *)
  mutable history : sample list; (* newest first, capped *)
  mutable running : bool;
}

(* The most recent file, kept after [stop] for the trace writer. *)
let current : st option ref = ref None

let write_file st =
  let tmp = st.path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      List.iter
        (fun s ->
          output_string oc (sample_to_json s);
          output_char oc '\n')
        (List.rev st.history));
  Sys.rename tmp st.path

let tick st ~finished =
  st.next_ns <- Int64.add (Span_stack.monotonic_ns ()) st.interval_ns;
  let s =
    {
      seq = (match st.history with s :: _ -> s.seq + 1 | [] -> 0);
      t_ms = Json.written_ms (Json.ms_of_ns (Stream.elapsed_ns ()));
      pass = String.concat ">" (Span_stack.names ());
      counters = Metrics.counters_now ();
      gauges = Metrics.gauges_now ();
      verdicts = Stream.verdicts ();
      abort = Watchdog.abort_requested ();
      finished;
    }
  in
  st.history <- s :: List.filteri (fun i _ -> i < max_history - 1) st.history;
  write_file st

let active () =
  match !current with Some st -> st.running | None -> false

let start ?(interval_ms = 500.) path =
  if active () then invalid_arg "Sbm_obs.Status.start: already running";
  let st =
    {
      path;
      interval_ns = Int64.of_float (Float.max 20. interval_ms *. 1e6);
      next_ns = 0L;
      history = [];
      running = true;
    }
  in
  current := Some st;
  try tick st ~finished:false
  with e ->
    current := None;
    raise e

let poll () =
  match !current with
  | Some st
    when st.running && Int64.compare (Span_stack.monotonic_ns ()) st.next_ns >= 0
    -> (
    try tick st ~finished:false with Sys_error _ -> ())
  | _ -> ()

let stop () =
  match !current with
  | Some st when st.running ->
    st.running <- false;
    (try tick st ~finished:true with Sys_error _ -> ())
  | _ -> ()

let samples () =
  match !current with Some st -> List.rev st.history | None -> []
