module Flight_recorder = Flight_recorder
module Watchdog = Watchdog
module Metrics = Metrics
module Status = Status
module Ledger = Ledger
module Fingerprint = Fingerprint
module Span_stack = Span_stack
module Json_out = Json_out

let monotonic_ns () = Span_stack.monotonic_ns ()

type span = Noop | Span of Span_stack.frame

type trace = { mutable roots : Span_stack.frame list (* reversed *) }

let null = Noop
let enabled = function Noop -> false | Span _ -> true

let create () = { roots = [] }

(* Every live span is a frame on the one span stack from open to
   close, so the recorder, watchdog, ledger, audit trail and status
   sampler all see the same "where the run is". *)
let root ?size ?depth trace name =
  let f = Span_stack.push ~root:true ?size ?depth name in
  trace.roots <- f :: trace.roots;
  Span f

let child ~pass ?size ?depth parent name =
  match parent with
  | Noop -> Noop
  | Span p ->
    let f = Span_stack.push ~pass ?size ?depth name in
    p.children <- f :: p.children;
    Span f

let span ?size ?depth parent name = child ~pass:false ?size ?depth parent name

let finish ?size ?depth (f : Span_stack.frame) =
  Span_stack.stop f;
  (match size with Some s -> f.size1 <- s | None -> ());
  (match depth with Some d -> f.depth1 <- d | None -> ())

let close ?size ?depth = function
  | Noop -> ()
  | Span f ->
    finish ?size ?depth f;
    Span_stack.pop f

(* The registry is the one counter store: a span's counters are the
   registry's activity while it was open, so the span argument only
   says where the bump happens. *)
let bump _span m n = Metrics.add m n

(* --- pass spans --- *)

let m_pass_ms =
  Metrics.histogram ~engine:"flow" ~unit_:"ms" "flow.pass_ms"
    "wall time of scripted flow passes"

let observing () =
  Ledger.enabled () || Fingerprint.enabled () || Watchdog.enabled ()
  || Flight_recorder.enabled () || Status.active ()

let pass ~size ~depth parent name =
  match parent with
  | Noop -> Noop
  | Span _ ->
    Ledger.drain_gauges ();
    Metrics.set Metrics.live_aig_nodes size;
    let sp = child ~pass:true ~size ~depth parent name in
    if Flight_recorder.enabled () then
      Flight_recorder.record ~severity:Flight_recorder.Info ~engine:"flow"
        ~id:name ~metrics:[ ("size", size) ] "pass start";
    sp

let close_pass ~size ~depth ?(dead_node_pct = 0) ?(structure = fun () -> 0L)
    ?(qor = fun () -> (-1, -1)) = function
  | Noop -> ()
  | Span f ->
    Metrics.set Metrics.live_aig_nodes size;
    Metrics.observe m_pass_ms
      (Int64.to_int (Int64.div (Int64.sub (monotonic_ns ()) f.t0) 1_000_000L));
    Metrics.set_max Metrics.peak_heap_words (Gc.quick_stat ()).Gc.heap_words;
    (* Trail record before the span stops: its chain value rides on the
       ledger row, and the record's own counter lands in the pass's
       registry delta — consistently at any --jobs, hence still
       deterministic. *)
    let fingerprint =
      if Fingerprint.enabled () then
        Fingerprint.record_pass ~structure:(structure ())
      else 0L
    in
    finish ~size ~depth f;
    if Ledger.enabled () then begin
      let luts, levels = qor () in
      Ledger.record ~fingerprint ~luts ~levels ~dead_node_pct f
    end;
    if Flight_recorder.enabled () then
      Flight_recorder.record ~severity:Flight_recorder.Info ~engine:"flow"
        ~id:f.name
        ~metrics:[ ("size", size); ("gain", f.size0 - size) ]
        "pass end";
    Watchdog.clear_abort ();
    Span_stack.pop f

(* One finished partition of a partition engine, on the main domain in
   ascending partition index (sequential and parallel paths alike). *)
let partition_done ?bails ~engine ~index ~structure metrics =
  let severity =
    match bails with
    | Some b ->
      Watchdog.note_partition ~engine ~bails:b;
      if b > 0 then Flight_recorder.Warn else Flight_recorder.Debug
    | None -> Flight_recorder.Debug
  in
  if Flight_recorder.enabled () then
    Flight_recorder.record ~severity ~engine
      ~id:(Printf.sprintf "partition-%d" index)
      ~metrics "partition done";
  if Fingerprint.enabled () then
    Fingerprint.record_merge ~engine ~partition:index ~structure:(structure ())

(* --- freezing --- *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type node = {
  name : string;
  wall_ns : int64;
  size_before : int option;
  size_after : int option;
  depth_before : int option;
  depth_after : int option;
  gc : gc_delta;
  counters : (string * int) list;
  children : node list;
}

let opt_of_int i = if i < 0 then None else Some i

let gc_delta_of (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    minor_words = Float.max 0.0 (g1.Gc.minor_words -. g0.Gc.minor_words);
    major_words = Float.max 0.0 (g1.Gc.major_words -. g0.Gc.major_words);
    minor_collections = max 0 (g1.Gc.minor_collections - g0.Gc.minor_collections);
    major_collections = max 0 (g1.Gc.major_collections - g0.Gc.major_collections);
  }

(* Registry activity of a frame: stamped at close, or up to [now]
   while it is still open. *)
let delta_at now (f : Span_stack.frame) =
  if f.t1 = 0L then Metrics.activity f.counters0 now else f.delta

(* A span's own counters: its registry delta minus its children's. A
   counter stays listed while a bump is left to the span, even one
   by 0. *)
let self_counters delta children =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v, b) -> Hashtbl.replace tbl k (v, b)) delta;
  List.iter
    (List.iter (fun (k, v, b) ->
         match Hashtbl.find_opt tbl k with
         | Some (v0, b0) -> Hashtbl.replace tbl k (v0 - v, b0 - b)
         | None -> ()))
    children;
  List.filter_map
    (fun (k, _, _) ->
      let v, b = Hashtbl.find tbl k in
      if b > 0 then Some (k, v) else None)
    delta

let rec freeze now snap gc_now (f : Span_stack.frame) =
  let stop = if f.t1 = 0L then now else f.t1 in
  let gc_stop = match f.gc1 with Some g -> g | None -> gc_now in
  {
    name = f.name;
    wall_ns = Int64.max 0L (Int64.sub stop f.t0);
    size_before = opt_of_int f.size0;
    size_after = opt_of_int f.size1;
    depth_before = opt_of_int f.depth0;
    depth_after = opt_of_int f.depth1;
    gc = gc_delta_of f.gc0 gc_stop;
    counters =
      self_counters (delta_at snap f) (List.map (delta_at snap) f.children);
    (* [children] is stored newest-first; [rev_map] restores opening
       order. *)
    children = List.rev_map (freeze now snap gc_now) f.children;
  }

let spans trace =
  let now = monotonic_ns () in
  let snap = Metrics.snapshot () in
  let gc_now = Gc.quick_stat () in
  List.rev_map (freeze now snap gc_now) trace.roots

(* The registry delta over the roots — the sum of every span's own
   counters. *)
let totals trace =
  let snap = Metrics.snapshot () in
  let acc : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun f ->
      List.iter
        (fun (k, v, _) ->
          Hashtbl.replace acc k
            (v + Option.value ~default:0 (Hashtbl.find_opt acc k)))
        (delta_at snap f))
    trace.roots;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total trace name =
  Option.value ~default:0 (List.assoc_opt name (totals trace))

(* --- value distributions --- *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

type dist = {
  count : int;
  total_ms : float;
  p50_ms : float;
  p90_ms : float;
  max_ms : float;
}

(* Nearest-rank percentile: the smallest sample such that at least
   [p * count] samples are <= it. [values] need not be sorted. *)
let percentile values p =
  let n = Array.length values in
  if n = 0 then invalid_arg "Sbm_obs.percentile: empty sample";
  if p < 0.0 || p > 1.0 then invalid_arg "Sbm_obs.percentile: p outside [0,1]";
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let dist_of_samples values =
  let total = Array.fold_left ( +. ) 0.0 values in
  {
    count = Array.length values;
    total_ms = total;
    p50_ms = percentile values 0.5;
    p90_ms = percentile values 0.9;
    max_ms = percentile values 1.0;
  }

let histograms trace =
  let acc : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  let rec walk n =
    let ms = ms_of_ns n.wall_ns in
    (match Hashtbl.find_opt acc n.name with
    | Some cell -> cell := ms :: !cell
    | None -> Hashtbl.add acc n.name (ref [ ms ]));
    List.iter walk n.children
  in
  List.iter walk (spans trace);
  Hashtbl.fold
    (fun name cell l -> (name, dist_of_samples (Array.of_list !cell)) :: l)
    acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_histograms ppf trace =
  Fmt.pf ppf "%-32s %6s %10s %10s %10s %10s@." "span" "count" "p50 ms"
    "p90 ms" "max ms" "total ms";
  List.iter
    (fun (name, d) ->
      Fmt.pf ppf "%-32s %6d %10.3f %10.3f %10.3f %10.3f@." name d.count
        d.p50_ms d.p90_ms d.max_ms d.total_ms)
    (histograms trace)

(* --- reporters --- *)

let pp ppf trace =
  let rec go indent n =
    let pad = String.make (2 * indent) ' ' in
    Fmt.pf ppf "%s%-*s %8.2fms" pad (max 1 (32 - (2 * indent))) n.name
      (ms_of_ns n.wall_ns);
    (match (n.size_before, n.size_after) with
    | Some b, Some a -> Fmt.pf ppf "  %d -> %d nodes" b a
    | Some b, None -> Fmt.pf ppf "  %d nodes" b
    | None, Some a -> Fmt.pf ppf "  -> %d nodes" a
    | None, None -> ());
    (match (n.depth_before, n.depth_after) with
    | Some b, Some a -> Fmt.pf ppf "  %d -> %d levels" b a
    | Some b, None -> Fmt.pf ppf "  %d levels" b
    | None, Some a -> Fmt.pf ppf "  -> %d levels" a
    | None, None -> ());
    Fmt.pf ppf "@.";
    if n.counters <> [] then begin
      Fmt.pf ppf "%s  | " pad;
      List.iteri
        (fun i (k, v) -> Fmt.pf ppf "%s%s=%d" (if i > 0 then " " else "") k v)
        n.counters;
      Fmt.pf ppf "@."
    end;
    List.iter (go (indent + 1)) n.children
  in
  List.iter (go 0) (spans trace)

let esc = Json_out.escape

let buf_span_fields b n =
  Buffer.add_string b (Printf.sprintf "\"wall_ms\":%.6f" (ms_of_ns n.wall_ns));
  let field name v =
    match v with
    | Some v -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" name v)
    | None -> ()
  in
  field "size_before" n.size_before;
  field "size_after" n.size_after;
  field "depth_before" n.depth_before;
  field "depth_after" n.depth_after;
  Buffer.add_string b
    (Printf.sprintf
       ",\"gc\":{\"minor_words\":%.0f,\"major_words\":%.0f,\"minor_collections\":%d,\"major_collections\":%d}"
       n.gc.minor_words n.gc.major_words n.gc.minor_collections
       n.gc.major_collections);
  if n.counters <> [] then begin
    Buffer.add_string b ",\"counters\":";
    Json_out.buf_counters b n.counters
  end

(* The one event and verdict serializers, shared by the trace document
   and the post-mortem dump. [t0] adds the absolute clock reading. *)
let buf_event ?t0 b (e : Flight_recorder.event) =
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"t_ms\":%.3f" e.seq (ms_of_ns e.t_ns));
  Option.iter
    (fun t0 ->
      Buffer.add_string b (Printf.sprintf ",\"t_ns\":%Ld" (Int64.add t0 e.t_ns)))
    t0;
  Buffer.add_string b
    (Printf.sprintf
       ",\"severity\":\"%s\",\"engine\":\"%s\",\"id\":\"%s\",\"message\":\"%s\",\"metrics\":"
       (Flight_recorder.severity_to_string e.severity)
       (esc e.engine) (esc e.id) (esc e.message));
  Json_out.buf_counters b e.metrics;
  Buffer.add_char b '}'

let buf_verdict b (v : Watchdog.verdict) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"rule\":\"%s\",\"detail\":\"%s\",\"action\":\"%s\",\"t_ms\":%.3f}"
       (esc v.rule) (esc v.detail)
       (match v.action with Watchdog.Note -> "note" | Watchdog.Abort -> "abort")
       (ms_of_ns v.t_ns))

let to_json trace =
  let b = Buffer.create 4096 in
  let rec go b n =
    Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\"," (esc n.name));
    buf_span_fields b n;
    Buffer.add_string b ",\"children\":";
    Json_out.buf_list b go n.children;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"version\":2,\"totals\":";
  Json_out.buf_counters b (totals trace);
  Buffer.add_string b ",\"histograms\":";
  Json_out.buf_obj b
    (fun b d ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"count\":%d,\"total_ms\":%.6f,\"p50_ms\":%.6f,\"p90_ms\":%.6f,\"max_ms\":%.6f}"
           d.count d.total_ms d.p50_ms d.p90_ms d.max_ms))
    (histograms trace);
  Buffer.add_string b ",\"spans\":";
  Json_out.buf_list b go (spans trace);
  (* Additive live-telemetry payloads (trace version stays 2: readers
     that only know "spans" ignore these keys). Emitted only when the
     corresponding subsystem ran, so plain traces are unchanged. *)
  let optional key f = function
    | [] -> ()
    | l ->
      Buffer.add_string b (Printf.sprintf ",\"%s\":" key);
      Json_out.buf_list b f l
  in
  optional "samples"
    (fun b s -> Buffer.add_string b (Status.sample_to_json s))
    (Status.samples ());
  optional "events" (buf_event ?t0:None) (Flight_recorder.events ());
  optional "verdicts" buf_verdict (Watchdog.verdicts ());
  Buffer.add_char b '}';
  Buffer.contents b

let to_jsonl trace =
  let b = Buffer.create 4096 in
  let rec go path n =
    let path = if path = "" then n.name else path ^ "/" ^ n.name in
    Buffer.add_string b (Printf.sprintf "{\"path\":\"%s\"," (esc path));
    buf_span_fields b n;
    Buffer.add_string b "}\n";
    List.iter (go path) n.children
  in
  List.iter (go "") (spans trace);
  Buffer.contents b

(* RFC 4180 quoting: a cell containing a comma, quote or newline is
   wrapped in double quotes with inner quotes doubled. *)
let csv_cell s =
  if String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s
  then begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

(* Counter names may contain the [k=v;k=v] packing's own separators;
   escape them with a backslash so the cell stays parseable. *)
let counter_key_escape s =
  if String.exists (function ';' | '=' | '\\' -> true | _ -> false) s then begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        (match c with ';' | '=' | '\\' -> Buffer.add_char b '\\' | _ -> ());
        Buffer.add_char b c)
      s;
    Buffer.contents b
  end
  else s

let to_csv trace =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "path,wall_ms,size_before,size_after,depth_before,depth_after,counters\n";
  let cell = function Some v -> string_of_int v | None -> "" in
  let rec go path n =
    let path = if path = "" then n.name else path ^ "/" ^ n.name in
    let counters =
      String.concat ";"
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%d" (counter_key_escape k) v)
           n.counters)
    in
    Buffer.add_string b
      (Printf.sprintf "%s,%.6f,%s,%s,%s,%s,%s\n" (csv_cell path)
         (ms_of_ns n.wall_ns) (cell n.size_before) (cell n.size_after)
         (cell n.depth_before) (cell n.depth_after) (csv_cell counters));
    List.iter (go path) n.children
  in
  List.iter (go "") (spans trace);
  Buffer.contents b

let write trace path =
  let render =
    if Filename.check_suffix path ".jsonl" then to_jsonl
    else if Filename.check_suffix path ".csv" then to_csv
    else to_json
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render trace))

(* --- QoR snapshots --- *)

module Snapshot = struct
  type qor = { size : int; depth : int; luts : int; levels : int }

  type entry = {
    bench : string;
    size_before : int;
    qor : qor;
    wall_ms : float;
    counters : (string * int) list;
    passes : Ledger.row list;
  }

  type t = { version : int; label : string; seed : int; entries : entry list }

  let current_version = 1

  (* Version of the per-entry "passes" array. The snapshot itself
     stays at version 1 — the key is additive and old readers ignore
     unknown members, matching the trace-v2 precedent. *)
  let passes_version = 1

  let make ?(label = "") ?(seed = 0) entries =
    let entries =
      List.sort (fun a b -> String.compare a.bench b.bench) entries
    in
    { version = current_version; label; seed; entries }

  let find t bench = List.find_opt (fun e -> e.bench = bench) t.entries

  let to_json t =
    let b = Buffer.create 4096 in
    let has_passes = List.exists (fun e -> e.passes <> []) t.entries in
    Buffer.add_string b (Printf.sprintf "{\"version\":%d" t.version);
    if has_passes then
      Buffer.add_string b
        (Printf.sprintf ",\"passes_version\":%d" passes_version);
    Buffer.add_string b
      (Printf.sprintf ",\"label\":\"%s\",\"seed\":%d,\"entries\":"
         (esc t.label) t.seed);
    Json_out.buf_list b
      (fun b e ->
        Buffer.add_string b
          (Printf.sprintf "{\"bench\":\"%s\"" (esc e.bench));
        (* Additive key (old readers ignore it): the input AIG node
           count, making the suite's effective scale visible in the
           snapshot itself. -1 = unrecorded. *)
        if e.size_before >= 0 then
          Buffer.add_string b
            (Printf.sprintf ",\"size_before\":%d" e.size_before);
        Buffer.add_string b
          (Printf.sprintf
             ",\"size\":%d,\"depth\":%d,\"luts\":%d,\"levels\":%d,\"wall_ms\":%.3f,\"counters\":"
             e.qor.size e.qor.depth e.qor.luts e.qor.levels e.wall_ms);
        Json_out.buf_counters b e.counters;
        if e.passes <> [] then begin
          Buffer.add_string b ",\"passes\":";
          Buffer.add_string b (Ledger.rows_to_json e.passes)
        end;
        Buffer.add_char b '}')
      t.entries;
    Buffer.add_char b '}';
    Buffer.contents b

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (to_json t);
        output_char oc '\n')
end

(* --- crash-dump post-mortems --- *)

module Postmortem = struct
  let current_version = 1

  type setup = { mutable trace : trace option; mutable dir : string }

  let setup = { trace = None; dir = "." }

  let configure ?dir ?trace () =
    (match dir with Some d -> setup.dir <- d | None -> ());
    match trace with Some t -> setup.trace <- Some t | None -> ()

  let to_json ~reason () =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "{\"version\":%d,\"reason\":\"%s\",\"pid\":%d"
         current_version (esc reason) (Unix.getpid ()));
    Buffer.add_string b
      (Printf.sprintf ",\"elapsed_ms\":%.3f"
         (ms_of_ns (Flight_recorder.elapsed_ns ())));
    (* Absolute monotonic origin of the run: event [t_ms] values are
       relative to it; [t_ns = t0_ns + t_ms*1e6] recovers absolute
       clock readings for cross-process correlation ([--abs]). *)
    Buffer.add_string b
      (Printf.sprintf ",\"t0_ns\":%Ld" (Flight_recorder.t0_ns ()));
    (* Open spans, outermost first: the path from the flow root down
       to wherever the run died. *)
    Buffer.add_string b ",\"span_stack\":";
    Json_out.buf_list b
      (fun b (f : Span_stack.frame) ->
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"opened_ms\":%.3f}"
             (esc f.name)
             (ms_of_ns (Int64.sub f.t0 (Flight_recorder.t0_ns ())))))
      (List.rev (Span_stack.frames ()));
    Buffer.add_string b ",\"watchdog\":";
    Json_out.buf_list b buf_verdict (Watchdog.verdicts ());
    Buffer.add_string b ",\"counters\":";
    Json_out.buf_counters b (match setup.trace with Some t -> totals t | None -> []);
    Buffer.add_string b
      (Printf.sprintf ",\"recorded\":%d,\"dropped\":%d,\"events\":"
         (Flight_recorder.recorded ()) (Flight_recorder.dropped ()));
    Json_out.buf_list b
      (buf_event ~t0:(Flight_recorder.t0_ns ()))
      (Flight_recorder.events ());
    Buffer.add_char b '}';
    Buffer.contents b

  let path () =
    Filename.concat setup.dir
      (Printf.sprintf "sbm-crash-%d.json" (Unix.getpid ()))

  let dump ~reason () =
    let file = path () in
    match open_out file with
    | exception Sys_error msg -> Error msg
    | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (to_json ~reason ());
          output_char oc '\n');
      Ok file

  let report_dump ~reason () =
    match dump ~reason () with
    | Ok file -> Printf.eprintf "sbm: post-mortem dump written to %s\n%!" file
    | Error msg -> Printf.eprintf "sbm: post-mortem dump failed: %s\n%!" msg

  (* 128 + signal number, the shell convention. *)
  let install ?dir ?trace () =
    configure ?dir ?trace ();
    let on signal name code =
      try
        Sys.set_signal signal
          (Sys.Signal_handle
             (fun _ ->
               report_dump ~reason:("signal " ^ name) ();
               Stdlib.exit code))
      with Invalid_argument _ | Sys_error _ -> ()
    in
    on Sys.sigint "SIGINT" 130;
    on Sys.sigterm "SIGTERM" 143
end
