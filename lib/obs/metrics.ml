(* Process-global typed metrics registry (contract in the .mli). Value
   cells are [Atomic.t] so worker domains can raise gauges while the
   main domain reads them. *)

type kind = Counter | Gauge

let kind_to_string = function Counter -> "counter" | Gauge -> "gauge"

let kind_of_string = function
  | "counter" -> Some Counter
  | "gauge" -> Some Gauge
  | _ -> None

type t = {
  id : int;
  name : string;
  kind : kind;
  unit_ : string;
  engine : string;
  description : string;
  cell : int Atomic.t; (* counter total / gauge value *)
  bumps : int Atomic.t; (* counter: [add] calls, so "bumped by 0" shows *)
  sample : (unit -> int) option; (* callback gauges, read at snapshot *)
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0

(* Counters in registration order: the layout of a snapshot.
   Registration only appends, so an older snapshot is a prefix of a
   newer one. *)
let counters : t array ref = ref [||]

(* Registration happens at module-initialization time on the main
   domain (each library registers its metrics as top-level bindings),
   so plain mutation is safe. *)
let register ?(engine = "") ?(unit_ = "count") ?sample kind name description =
  if Hashtbl.mem registry name then
    invalid_arg
      (Printf.sprintf "Sbm_obs.Metrics: duplicate registration of %S" name);
  let m =
    {
      id = !next_id;
      name;
      kind;
      unit_;
      engine;
      description;
      cell = Atomic.make 0;
      bumps = Atomic.make 0;
      sample;
    }
  in
  incr next_id;
  Hashtbl.replace registry name m;
  if kind = Counter then counters := Array.append !counters [| m |];
  m

let counter ?engine ?unit_ name description =
  register ?engine ?unit_ Counter name description

let gauge ?engine ?unit_ name description =
  register ?engine ?unit_ Gauge name description

let name m = m.name
let kind m = m.kind
let unit_ m = m.unit_
let engine m = m.engine
let description m = m.description

let find n = Hashtbl.find_opt registry n

let all () =
  Hashtbl.fold (fun _ m acc -> m :: acc) registry []
  |> List.sort (fun a b -> String.compare a.name b.name)

(* --- the worker shard --- *)

type shard = {
  counts : (string, int ref) Hashtbl.t;
  mutable deferred : (unit -> unit) list;
}

let shard : shard option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let add m n =
  if m.kind <> Counter then
    invalid_arg ("Sbm_obs.Metrics.add on non-counter " ^ m.name);
  match Domain.DLS.get shard with
  | Some s -> (
    match Hashtbl.find_opt s.counts m.name with
    | Some cell -> cell := !cell + n
    | None -> Hashtbl.add s.counts m.name (ref n))
  | None ->
    ignore (Atomic.fetch_and_add m.cell n);
    Atomic.incr m.bumps

let incr m = add m 1

(* Gauges are observational (never compared bit-exactly
   across job counts), so they write straight to the shared cells even
   from a worker domain. *)
let set m v =
  if m.kind <> Gauge then
    invalid_arg ("Sbm_obs.Metrics.set on non-gauge " ^ m.name);
  Atomic.set m.cell v

let rec set_max m v =
  if m.kind <> Gauge then
    invalid_arg ("Sbm_obs.Metrics.set_max on non-gauge " ^ m.name);
  let cur = Atomic.get m.cell in
  if v > cur && not (Atomic.compare_and_set m.cell cur v) then set_max m v

let value m = match m.sample with Some f -> f () | None -> Atomic.get m.cell

(* --- snapshot views --- *)

let by_kind k =
  List.filter_map
    (fun m -> if m.kind = k then Some (m.name, value m) else None)
    (all ())

let counters_now () = by_kind Counter
let gauges_now () = by_kind Gauge

(* Two cells per counter: value, bumps. *)
type snapshot = int array

let snapshot () =
  let cs = !counters in
  let s = Array.make (2 * Array.length cs) 0 in
  Array.iteri
    (fun i m ->
      s.(2 * i) <- Atomic.get m.cell;
      s.((2 * i) + 1) <- Atomic.get m.bumps)
    cs;
  s

let activity before now =
  let at s i = if i < Array.length s then s.(i) else 0 in
  List.init (Array.length now / 2) Fun.id
  |> List.filter_map (fun i ->
         let bumps = now.((2 * i) + 1) - at before ((2 * i) + 1) in
         if bumps > 0 then
           Some ((!counters).(i).name, now.(2 * i) - at before (2 * i), bumps)
         else None)
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* --- automatic process gauges --- *)

(* Callback gauges: the function is read at snapshot time. *)
let gauge_fn ?engine ?unit_ name description f =
  register ?engine ?unit_ ~sample:f Gauge name description

let _heap_words =
  gauge_fn ~engine:"process" ~unit_:"words" "process.heap_words"
    "major heap size in words (Gc.quick_stat)" (fun () ->
      (Gc.quick_stat ()).Gc.heap_words)

let _major_collections =
  gauge_fn ~engine:"process" ~unit_:"collections" "process.major_collections"
    "completed major GC cycles" (fun () ->
      (Gc.quick_stat ()).Gc.major_collections)

let _minor_collections =
  gauge_fn ~engine:"process" ~unit_:"collections" "process.minor_collections"
    "completed minor GC cycles" (fun () ->
      (Gc.quick_stat ()).Gc.minor_collections)

let live_aig_nodes =
  gauge ~engine:"process" ~unit_:"nodes" "process.live_aig_nodes"
    "live AND nodes of the network at the last pass boundary"

let peak_heap_words =
  gauge ~engine:"process" ~unit_:"words" "process.peak_heap_words"
    "high-water mark of the major heap sampled at pass and job boundaries"

(* Registered here rather than in the CLI because the bench snapshot
   writer appends it to the counter totals; the catalog must list it
   wherever the registry is linked. *)
let bench_wall_ms_min =
  gauge ~engine:"bench" ~unit_:"ms" "bench.wall_ms_min"
    "minimum wall time over repeated bench runs (--repeat > 1)"
