module Stream = Stream
module Watchdog = Watchdog
module Metrics = Metrics
module Status = Status
module Ledger = Ledger
module Span_stack = Span_stack
module Json = Json

let monotonic_ns () = Span_stack.monotonic_ns ()

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

(* A span is its frame while open; its close freezes it, once, into
   its node and its registry delta (children included, which its
   parent's own counters subtract). *)
type handle = {
  trace : trace;
  frame : Span_stack.frame;
  mutable kids : handle list; (* newest first *)
  mutable frozen : (node * (string * int * int) list) option;
}

and trace = {
  mutable roots : handle list; (* reversed *)
  mutable rows : Ledger.row list; (* reversed *)
}

type span = Noop | Span of handle

let null = Noop
let enabled = function Noop -> false | Span _ -> true

let create () = { roots = []; rows = [] }

(* --- the one main-domain poll --- *)

let poll () =
  Watchdog.poll ();
  Status.poll ()

(* --- worker shards --- *)

let capture f =
  let s = { Metrics.counts = Hashtbl.create 16; deferred = [] } in
  let prev = Domain.DLS.get Metrics.shard in
  Domain.DLS.set Metrics.shard (Some s);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set Metrics.shard prev)
    (fun () -> (f (), s))

(* Counter deltas first, then the deferred stream records, oldest
   first. A name the registry no longer knows is skipped. *)
let replay (s : Metrics.shard) =
  Hashtbl.iter
    (fun name n -> Option.iter (fun m -> Metrics.add m !n) (Metrics.find name))
    s.counts;
  List.iter (fun f -> f ()) (List.rev s.deferred)

(* --- freezing --- *)

(* The clock, GC state and registry a freeze reads. *)
type reading = { t1 : int64; gc1 : Gc.stat; snap : Metrics.snapshot }

let read () =
  let t1 = monotonic_ns () in
  let gc1 = Gc.quick_stat () in
  { t1; gc1; snap = Metrics.snapshot () }

let opt_of_int i = if i < 0 then None else Some i

let gc_delta_of (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    minor_words = Float.max 0.0 (g1.Gc.minor_words -. g0.Gc.minor_words);
    major_words = Float.max 0.0 (g1.Gc.major_words -. g0.Gc.major_words);
    minor_collections = max 0 (g1.Gc.minor_collections - g0.Gc.minor_collections);
    major_collections = max 0 (g1.Gc.major_collections - g0.Gc.major_collections);
  }

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

(* A closed span is already frozen; an open one, with its open
   descendants, is frozen as of [r] and kept only when [keep] (its
   close). [size]/[depth] are the network leaving it, [-1] = unset. *)
let rec freeze ~keep ?(size = -1) ?(depth = -1) r s =
  match s.frozen with
  | Some fz -> fz
  | None ->
    let f = s.frame in
    (* [kids] is stored newest-first; [rev_map] restores opening
       order. *)
    let kids = List.rev_map (freeze ~keep r) s.kids in
    let delta = Metrics.activity f.counters0 r.snap in
    let node =
      {
        name = f.name;
        wall_ns = Int64.max 0L (Int64.sub r.t1 f.t0);
        size_before = opt_of_int f.size0;
        size_after = opt_of_int size;
        depth_before = opt_of_int f.depth0;
        depth_after = opt_of_int depth;
        gc = gc_delta_of f.gc0 r.gc1;
        counters = self_counters delta (List.map snd kids);
        children = List.map fst kids;
      }
    in
    if keep then s.frozen <- Some (node, delta);
    (node, delta)

(* Every live span is a frame on the one span stack from open to
   close, so the stream's records, the watchdog and the status file all
   see the same "where the run is"; each open and close polls. *)
let root ?size ?depth trace name =
  let s =
    { trace; frame = Span_stack.push ~root:true ?size ?depth name;
      kids = []; frozen = None }
  in
  trace.roots <- s :: trace.roots;
  poll ();
  Span s

let child ~pass ?size ?depth parent name =
  match parent with
  | Noop -> Noop
  | Span p ->
    let s =
      { trace = p.trace; frame = Span_stack.push ~pass ?size ?depth name;
        kids = []; frozen = None }
    in
    p.kids <- s :: p.kids;
    poll ();
    Span s

let span ?size ?depth parent name = child ~pass:false ?size ?depth parent name

(* The one freeze of an open span: its close. *)
let shut ?size ?depth s =
  let r = read () in
  let frozen = freeze ~keep:true ?size ?depth r s in
  Span_stack.pop s.frame;
  (r, frozen)

let close ?size ?depth = function
  | Span ({ frozen = None; _ } as s) ->
    ignore (shut ?size ?depth s);
    poll ()
  | Noop | Span _ -> ()

(* --- pass spans --- *)

let observing () = Stream.on () || Status.active ()

let pass ~size ~depth parent name =
  match parent with
  | Noop -> Noop
  | Span _ ->
    ignore (Ledger.drain_gauges ());
    Metrics.set Metrics.live_aig_nodes size;
    let sp = child ~pass:true ~size ~depth parent name in
    if Stream.recorder_on () then
      Stream.append ~kind:Stream.Pass_start ~engine:"flow" ~id:name
        ~metrics:[ ("size", size) ] "pass start";
    sp

let close_pass ~size ~depth ?(dead_node_pct = 0) ?structure
    ?(qor = fun () -> (-1, -1)) = function
  | Span ({ frozen = None; frame = f; trace; _ } as s) ->
    Metrics.set Metrics.live_aig_nodes size;
    Metrics.set_max Metrics.peak_heap_words (Gc.quick_stat ()).Gc.heap_words;
    (* The pass-end record before the span freezes: its trail link's
       counter bump lands in the pass's registry delta, consistently
       at any --jobs, hence still deterministic. *)
    let fingerprint =
      if not (Stream.on ()) then 0L
      else begin
        Stream.append ~kind:Stream.Pass ~engine:"flow" ~id:f.name
          ~metrics:[ ("size", size); ("gain", f.size0 - size) ]
          ?structure "pass end";
        Stream.chain ()
      end
    in
    let r, (node, delta) = shut ~size ~depth s in
    (* Off the stack, so the last drain folds into the enclosing
       passes; this pass takes it into its row. *)
    let unique, cache = Ledger.drain_gauges () in
    let luts, levels = qor () in
    trace.rows <-
      {
        Ledger.path = f.path;
        index = List.length trace.rows;
        size_before = f.size0;
        size_after = size;
        depth_before = f.depth0;
        depth_after = depth;
        luts;
        levels;
        fingerprint;
        wall_ns = node.wall_ns;
        counters =
          List.filter_map
            (fun (k, v, _) -> if v <> 0 then Some (k, v) else None)
            delta;
        minor_words = node.gc.minor_words;
        major_words = node.gc.major_words;
        heap_words = r.gc1.Gc.heap_words;
        unique_load_pct = max f.unique_max unique;
        cache_load_pct = max f.cache_max cache;
        dead_node_pct;
      }
      :: trace.rows;
    poll ()
  | Noop | Span _ -> ()

(* One finished partition of a partition engine, on the main domain in
   ascending partition index (sequential and parallel paths alike). *)
let partition_done ~engine ~index ~structure metrics =
  if Stream.on () then
    Stream.append ~kind:Stream.Merge ~engine ~metrics ~structure
      ~severity:
        (match List.assoc_opt "bails" metrics with
        | Some b when b > 0 -> Stream.Warn
        | _ -> Stream.Debug)
      ~id:(Printf.sprintf "partition-%d" index) "partition done"

(* --- the frozen forest --- *)

(* The roots in opening order; spans still open freeze as of now, and
   are not kept. *)
let frozen_roots trace =
  let r = read () in
  List.rev_map (freeze ~keep:false r) trace.roots

let spans trace = List.map fst (frozen_roots trace)

(* The registry delta over the roots — the sum of every span's own
   counters. *)
let totals trace =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, delta) ->
      List.iter
        (fun (k, v, _) ->
          Hashtbl.replace acc k
            (v + Option.value ~default:0 (Hashtbl.find_opt acc k)))
        delta)
    (frozen_roots trace);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total trace name =
  Option.value ~default:0 (List.assoc_opt name (totals trace))

let ledger trace = List.rev trace.rows

(* --- value distributions --- *)

let ms_of_ns = Json.ms_of_ns

type dist = {
  count : int;
  total_ms : float;
  self_ms : float;
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

let wall_ms n = ms_of_ns n.wall_ns

(* Clamped at 0 against clock jitter between a span and its
   children. *)
let self_ms n =
  Float.max 0.0
    (wall_ms n -. List.fold_left (fun acc c -> acc +. wall_ms c) 0.0 n.children)

(* One depth-first walk; totals sum in visiting order, so every view
   of the same forest adds the same floats the same way. *)
let aggregate forest =
  let acc : (string, int * float * float * float list) Hashtbl.t =
    Hashtbl.create 32
  in
  let rec walk n =
    let ms = wall_ms n in
    let calls, total, self, samples =
      Option.value ~default:(0, 0.0, 0.0, []) (Hashtbl.find_opt acc n.name)
    in
    Hashtbl.replace acc n.name
      (calls + 1, total +. ms, self +. self_ms n, ms :: samples);
    List.iter walk n.children
  in
  List.iter walk forest;
  Hashtbl.fold
    (fun name (count, total_ms, self, samples) l ->
      let values = Array.of_list samples in
      ( name,
        { count; total_ms; self_ms = self;
          p50_ms = percentile values 0.5;
          p90_ms = percentile values 0.9;
          max_ms = percentile values 1.0 } )
      :: l)
    acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms trace = aggregate (spans trace)

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
      (wall_ms n);
    let range what = function
      | Some b, Some a -> Fmt.pf ppf "  %d -> %d %s" b a what
      | Some b, None -> Fmt.pf ppf "  %d %s" b what
      | None, Some a -> Fmt.pf ppf "  -> %d %s" a what
      | None, None -> ()
    in
    range "nodes" (n.size_before, n.size_after);
    range "levels" (n.depth_before, n.depth_after);
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

let esc = Json.escape

let buf_span_fields b n =
  Buffer.add_string b (Printf.sprintf "\"wall_ms\":%.6f" (wall_ms n));
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
    Json.buf_counters b n.counters
  end

let trace_version = 2

let to_json trace =
  let forest = spans trace in
  let b = Buffer.create 4096 in
  let rec go b n =
    Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\"," (esc n.name));
    buf_span_fields b n;
    Buffer.add_string b ",\"children\":";
    Json.buf_list b go n.children;
    Buffer.add_char b '}'
  in
  Buffer.add_string b
    (Printf.sprintf "{\"version\":%d,\"totals\":" trace_version);
  Json.buf_counters b (totals trace);
  Buffer.add_string b ",\"histograms\":";
  Json.buf_obj b
    (fun b d ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"count\":%d,\"total_ms\":%.6f,\"p50_ms\":%.6f,\"p90_ms\":%.6f,\"max_ms\":%.6f}"
           d.count d.total_ms d.p50_ms d.p90_ms d.max_ms))
    (aggregate forest);
  Buffer.add_string b ",\"spans\":";
  Json.buf_list b go forest;
  (* Additive live-telemetry payloads (trace version stays 2: readers
     that only know "spans" ignore these keys). Emitted only when the
     corresponding subsystem ran, so plain traces are unchanged. *)
  let optional key f = function
    | [] -> ()
    | l ->
      Buffer.add_string b (Printf.sprintf ",\"%s\":" key);
      Json.buf_list b f l
  in
  optional "samples"
    (fun b s -> Buffer.add_string b (Status.sample_to_json s))
    (Status.samples ());
  optional "events" Stream.buf_record (Stream.events ());
  Buffer.add_char b '}';
  Buffer.contents b

(* --- the trace reader: the inverse of [spans] as [to_json] writes
   them --- *)

(* A version-1 span has no "gc" object: its delta reads as zero. *)
let rec node_of_json j =
  let size key = Json.(to_int (member key j)) in
  let gc = Option.value ~default:(Json.Obj []) (Json.member "gc" j) in
  {
    name = Json.str ~default:"?" "name" j;
    wall_ns = Json.ns_of_ms (Json.num "wall_ms" j);
    size_before = size "size_before";
    size_after = size "size_after";
    depth_before = size "depth_before";
    depth_after = size "depth_after";
    gc =
      {
        minor_words = Json.num "minor_words" gc;
        major_words = Json.num "major_words" gc;
        minor_collections = Json.int "minor_collections" gc;
        major_collections = Json.int "major_collections" gc;
      };
    counters = Json.counters "counters" j;
    children = List.map node_of_json (Json.to_list (Json.member "children" j));
  }

let of_json_value json =
  match Json.(to_int (member "version" json)) with
  | Some v when v > trace_version ->
    Error
      (Printf.sprintf "trace version %d is newer than supported (%d)" v
         trace_version)
  | _ -> (
    match Json.member "spans" json with
    | None -> Error "not a trace: missing \"spans\""
    | Some (Json.List l) -> Ok (List.map node_of_json l)
    | Some _ -> Error "not a trace: \"spans\" is not an array")

let parse s =
  match Json.parse s with
  | exception Json.Bad msg -> Error ("malformed JSON: " ^ msg)
  | json -> Ok json

let of_json s = Result.bind (parse s) of_json_value

(* A non-empty document, read by [of_json_value]. *)
let of_text of_json_value s =
  if String.trim s = "" then Error "empty input"
  else Result.bind (parse s) of_json_value

(* [of_text] on a file ("-" = stdin); errors name the source. *)
let load_with of_json_value path =
  Result.bind (Json.read_source path) (fun s ->
      let label = if path = "-" then "stdin" else path in
      Result.map_error (fun msg -> label ^ ": " ^ msg) (of_text of_json_value s))

let load = load_with of_json_value

(* Every span depth-first, with its "root/child/grandchild" path. *)
let iter_paths f trace =
  let rec go path n =
    let path = if path = "" then n.name else path ^ "/" ^ n.name in
    f path n;
    List.iter (go path) n.children
  in
  List.iter (go "") (spans trace)

let to_jsonl trace =
  let b = Buffer.create 4096 in
  iter_paths
    (fun path n ->
      Buffer.add_string b (Printf.sprintf "{\"path\":\"%s\"," (esc path));
      buf_span_fields b n;
      Buffer.add_string b "}\n")
    trace;
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
  iter_paths
    (fun path n ->
      let counters =
        String.concat ";"
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%d" (counter_key_escape k) v)
             n.counters)
      in
      Buffer.add_string b
        (Printf.sprintf "%s,%.6f,%s,%s,%s,%s,%s\n" (csv_cell path)
           (wall_ms n) (cell n.size_before) (cell n.size_after)
           (cell n.depth_before) (cell n.depth_after) (csv_cell counters)))
    trace;
  Buffer.contents b

let write trace path =
  let render =
    if Filename.check_suffix path ".jsonl" then to_jsonl
    else if Filename.check_suffix path ".csv" then to_csv
    else to_json
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (render trace))

(* --- QoR snapshots --- *)

module Snapshot = struct
  type qor = { size : int; depth : int; luts : int; levels : int }

  type entry = {
    bench : string;
    size_before : int;
    qor : qor;
    cec : string option;
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

  let by_bench a b = String.compare a.bench b.bench

  (* [wall_ms] is rounded to the microsecond the document holds, so a
     made snapshot equals the one [of_json] reads back. *)
  let make ?(label = "") ?(seed = 0) entries =
    let entries =
      List.map (fun e -> { e with wall_ms = Json.written_ms e.wall_ms }) entries
    in
    { version = current_version; label; seed;
      entries = List.sort by_bench entries }

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
    Json.buf_list b
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
             ",\"size\":%d,\"depth\":%d,\"luts\":%d,\"levels\":%d"
             e.qor.size e.qor.depth e.qor.luts e.qor.levels);
        (* Additive key: the equivalence verdict of output vs input. *)
        Option.iter
          (fun v -> Buffer.add_string b (Printf.sprintf ",\"cec\":\"%s\"" (esc v)))
          e.cec;
        Buffer.add_string b
          (Printf.sprintf ",\"wall_ms\":%.3f,\"counters\":" e.wall_ms);
        Json.buf_counters b e.counters;
        if e.passes <> [] then begin
          Buffer.add_string b ",\"passes\":";
          Buffer.add_string b (Ledger.rows_to_json e.passes)
        end;
        Buffer.add_char b '}')
      t.entries;
    Buffer.add_char b '}';
    Buffer.contents b

  let write t path =
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_json t);
        output_char oc '\n')

  (* Additive keys read as their "unrecorded" value when absent:
     size_before -1, cec None, passes []. *)
  let entry_of_json j =
    let int key = Json.(to_int (member key j)) in
    match
      ( Json.(to_str (member "bench" j)),
        int "size", int "depth", int "luts", int "levels" )
    with
    | None, _, _, _, _ -> Error "entry without \"bench\""
    | Some bench, Some size, Some depth, Some luts, Some levels ->
      Ok
        {
          bench;
          size_before = Json.int ~default:(-1) "size_before" j;
          qor = { size; depth; luts; levels };
          cec = Json.(to_str (member "cec" j));
          wall_ms = Json.num "wall_ms" j;
          counters = Json.counters "counters" j;
          passes =
            List.map Ledger.row_of_json (Json.to_list (Json.member "passes" j));
        }
    | Some bench, _, _, _, _ ->
      Error (Printf.sprintf "entry %S: missing QoR field" bench)

  let of_json_value json =
    match Json.(to_int (member "version" json)) with
    | None -> Error "not a snapshot: missing \"version\""
    | Some v when v > current_version ->
      Error
        (Printf.sprintf "snapshot version %d is newer than supported (%d)" v
           current_version)
    | Some version ->
      let rec entries acc = function
        | [] -> Ok (List.sort by_bench (List.rev acc))
        | j :: rest ->
          Result.bind (entry_of_json j) (fun e -> entries (e :: acc) rest)
      in
      Result.map
        (fun entries ->
          { version; label = Json.str "label" json;
            seed = Json.int "seed" json; entries })
        (entries [] (Json.to_list (Json.member "entries" json)))

  let of_json s = Result.bind (parse s) of_json_value

  let load path =
    Result.bind (Json.read_source path) (fun s ->
        Result.map_error (fun msg -> path ^ ": " ^ msg) (of_json s))
end

(* --- crash-dump post-mortems --- *)

module Postmortem = struct
  module S = Stream

  let current_version = 3

  type setup = { mutable trace : trace option; mutable dir : string }

  let setup = { trace = None; dir = "." }

  let configure ?dir ?trace () =
    (match dir with Some d -> setup.dir <- d | None -> ());
    match trace with Some t -> setup.trace <- Some t | None -> ()

  type frame = { name : string; opened_ms : float }

  type dump = {
    version : int;
    reason : string;
    pid : int;
    elapsed_ms : float;
    t0_ns : int64 option;
    span_stack : frame list;
    counters : (string * int) list;
    recorded : int;
    dropped : int;
    events : Stream.record list;
  }

  (* Times are rounded to the microsecond the document holds, as
     record times already are, so the captured dump equals the one
     [of_json] reads back. *)
  let capture ~reason () =
    let t0 = S.t0_ns () in
    let ms ns = Json.written_ms (ms_of_ns ns) in
    {
      version = current_version;
      reason;
      pid = Unix.getpid ();
      elapsed_ms = ms (S.elapsed_ns ());
      t0_ns = Some t0;
      (* Open spans, outermost first: the path from the flow root down
         to wherever the run died. *)
      span_stack =
        List.rev_map
          (fun (f : Span_stack.frame) ->
            { name = f.name; opened_ms = ms (Int64.sub f.t0 t0) })
          (Span_stack.frames ());
      counters = (match setup.trace with Some t -> totals t | None -> []);
      recorded = S.recorded ();
      dropped = S.dropped ();
      events = S.events ();
    }

  let to_json d =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"version\":%d,\"reason\":\"%s\",\"pid\":%d,\"elapsed_ms\":%.3f"
         current_version (esc d.reason) d.pid d.elapsed_ms);
    (* The stream's absolute origin, a decimal string (exact past 2^53
       ns): record [t_ms] values are relative to it ([--abs]). *)
    Option.iter
      (fun t0 -> Buffer.add_string b (Printf.sprintf ",\"t0_ns\":\"%Ld\"" t0))
      d.t0_ns;
    Buffer.add_string b ",\"span_stack\":";
    Json.buf_list b
      (fun b f ->
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"opened_ms\":%.3f}" (esc f.name)
             f.opened_ms))
      d.span_stack;
    Buffer.add_string b ",\"counters\":";
    Json.buf_counters b d.counters;
    Buffer.add_string b
      (Printf.sprintf ",\"recorded\":%d,\"dropped\":%d,\"events\":" d.recorded
         d.dropped);
    Json.buf_list b S.buf_record d.events;
    Buffer.add_char b '}';
    Buffer.contents b

  (* Version 1 kept each verdict twice: in a "watchdog" array, complete,
     and as a ring event the ring may have dropped. The array's verdicts
     replace the ring's, in time order. *)
  let migrate_v1 verdicts events =
    let verdict v =
      { S.seq = -1; t_ns = Json.ns_of_ms (Json.num "t_ms" v); kind = S.Verdict;
        severity = (if Json.str "action" v = "abort" then S.Error else S.Warn);
        engine = "watchdog"; id = Json.str ~default:"?" "rule" v;
        message = Json.str "detail" v; metrics = []; link = None }
    in
    List.stable_sort
      (fun (a : S.record) (b : S.record) -> Int64.compare a.t_ns b.t_ns)
      (List.map verdict verdicts
      @ List.filter (fun e -> not (S.is_verdict e)) events)

  let of_json_value j =
    match Json.(to_int (member "version" j)) with
    | None -> Error "not a post-mortem dump: missing \"version\""
    | Some v when v > current_version ->
      Error
        (Printf.sprintf "unsupported dump version %d (this sbm reads <= %d)" v
           current_version)
    | Some version ->
      let list key f = List.map f (Json.to_list (Json.member key j)) in
      (* An absolute clock reading: a decimal string, exact past 2^53
         ns, or a number in version-1 dumps. *)
      let abs_ns key j =
        match Json.member key j with
        | Some (Json.Str s) -> Int64.of_string_opt s
        | Some (Json.Num f) -> Some (Int64.of_float f)
        | _ -> None
      in
      let t0_ns = abs_ns "t0_ns" j in
      (* A version-1 or -2 record's absolute "t_ns" times it to the ns. *)
      let events =
        list "events" (fun e ->
            let r = S.record_of_json e in
            match (t0_ns, abs_ns "t_ns" e) with
            | Some t0, Some t -> { r with t_ns = Int64.sub t t0 }
            | _ -> r)
      in
      Ok
        {
          version;
          reason = Json.str ~default:"?" "reason" j;
          pid = Json.int "pid" j;
          elapsed_ms = Json.num "elapsed_ms" j;
          t0_ns;
          span_stack =
            list "span_stack" (fun f ->
                { name = Json.str ~default:"?" "name" f;
                  opened_ms = Json.num "opened_ms" f });
          counters = Json.counters "counters" j;
          recorded = Json.int "recorded" j;
          dropped = Json.int "dropped" j;
          events =
            (if version < 2 then migrate_v1 (list "watchdog" Fun.id) events
             else events);
        }

  let of_json = of_text of_json_value
  let load = load_with of_json_value

  let report_dump ~reason () =
    let file =
      Filename.concat setup.dir
        (Printf.sprintf "sbm-crash-%d.json" (Unix.getpid ()))
    in
    match
      Out_channel.with_open_text file (fun oc ->
          output_string oc (to_json (capture ~reason ()));
          output_char oc '\n')
    with
    | () -> Printf.eprintf "sbm: post-mortem dump written to %s\n%!" file
    | exception Sys_error msg ->
      Printf.eprintf "sbm: post-mortem dump failed: %s\n%!" msg

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
