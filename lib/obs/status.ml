(* Live run telemetry: a sampler domain that periodically snapshots
   the metrics registry + the open-span stack + watchdog
   verdicts and rewrites a JSONL status file via atomic rename, so an
   external `sbm top` can tail a consistent view of a run in flight.

   The status file always holds the full retained history (up to
   [max_history] samples, one JSON object per line, oldest first);
   rewriting the whole file through rename means a reader never sees a
   torn line — it either opens the previous complete file or the new
   complete file. *)

type sample = {
  seq : int;
  t_ms : float; (* since the sampler started *)
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
   atomic-rename protocol makes torn lines impossible from the sampler
   itself, but a reader racing a rewriting writer (NFS, a copied file)
   can still see a truncated final line, and an unrelated file should
   degrade, not crash. *)
let load path =
  match Json.load_lines path with
  | Error _ as e -> e
  | Ok [] -> Error (path ^ ": no samples")
  | Ok js -> Ok (List.map sample_of_json js)

(* --- sampler state --- *)

type st = {
  path : string;
  interval_ms : float;
  t0 : int64;
  mutable seq : int;
  mutable history : sample list; (* newest first, capped *)
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
  lock : Mutex.t;
}

let current : st option ref = ref None

let take_sample st ~finished =
  let t_ms =
    Json.written_ms (Json.ms_of_ns (Int64.sub (Span_stack.monotonic_ns ()) st.t0))
  in
  let pass = String.concat ">" (Span_stack.names ()) in
  let s =
    {
      seq = st.seq;
      t_ms;
      pass;
      counters = Metrics.counters_now ();
      gauges = Metrics.gauges_now ();
      verdicts = List.length (Watchdog.verdicts ());
      abort = Watchdog.abort_requested ();
      finished;
    }
  in
  st.seq <- st.seq + 1;
  s

let write_file st =
  let lines =
    List.rev_map sample_to_json st.history |> String.concat "\n"
  in
  let tmp = st.path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc lines;
  output_char oc '\n';
  close_out oc;
  (* rename is atomic on POSIX: a concurrent reader sees either the
     old complete file or the new one, never a partial write *)
  Unix.rename tmp st.path

let tick st ~finished =
  (* The span stack and verdicts are written by the main domain without
     synchronization; the sampler reads immutable list cells, so the
     worst case is a one-tick-stale pass path, which is fine for a
     human dashboard. *)
  Mutex.lock st.lock;
  let s = take_sample st ~finished in
  st.history <-
    s
    :: (if List.length st.history >= max_history then
          List.filteri (fun i _ -> i < max_history - 1) st.history
        else st.history);
  (try write_file st with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.unlock st.lock

let sampler_loop st =
  (* sleep in short slices so stop () returns promptly even with a
     multi-second interval *)
  let slice = 0.05 in
  let rec wait remaining =
    if (not (Atomic.get st.stop_flag)) && remaining > 0. then begin
      Unix.sleepf (min slice remaining);
      wait (remaining -. slice)
    end
  in
  while not (Atomic.get st.stop_flag) do
    tick st ~finished:false;
    wait (st.interval_ms /. 1000.)
  done

let active () = !current <> None

let start ?(interval_ms = 500.) path =
  if !current <> None then
    invalid_arg "Sbm_obs.Status.start: sampler already running";
  let st =
    {
      path;
      interval_ms = Float.max 20. interval_ms;
      t0 = Span_stack.monotonic_ns ();
      seq = 0;
      history = [];
      stop_flag = Atomic.make false;
      domain = None;
      lock = Mutex.create ();
    }
  in
  current := Some st;
  tick st ~finished:false;
  st.domain <- Some (Domain.spawn (fun () -> sampler_loop st))

(* History of the most recently stopped sampler, kept so the trace
   writer can embed the samples after the run winds down. *)
let retired : sample list ref = ref []

let stop () =
  match !current with
  | None -> ()
  | Some st ->
    Atomic.set st.stop_flag true;
    (match st.domain with Some d -> Domain.join d | None -> ());
    tick st ~finished:true;
    retired := List.rev st.history;
    current := None

let samples () =
  match !current with
  | None -> !retired
  | Some st ->
    Mutex.lock st.lock;
    let h = List.rev st.history in
    Mutex.unlock st.lock;
    h
