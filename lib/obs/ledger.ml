(* Per-pass resource ledger (contract in the .mli). The BDD load
   gauges are written by [Bdd_bridge.flush_stats], once per partition
   in ascending partition order. *)

type row = {
  path : string; (* slash-joined pass path, e.g. "iteration-1/mspf" *)
  index : int; (* completion order within the run, from 0 *)
  size_before : int;
  size_after : int;
  depth_before : int;
  depth_after : int;
  luts : int; (* LUT-6 count after the pass; -1 = not probed *)
  levels : int; (* LUT levels after the pass; -1 = not probed *)
  fingerprint : int64; (* audit-trail chain value; 0 = trail disabled *)
  wall_ns : int64;
  counters : (string * int) list; (* nonzero registry deltas, sorted *)
  minor_words : float; (* words allocated during the pass *)
  major_words : float;
  heap_words : int; (* major heap size sampled at pass end *)
  unique_load_pct : int; (* max BDD unique-table load during the pass *)
  cache_load_pct : int; (* max computed-cache load during the pass *)
  dead_node_pct : int; (* dead AIG slots after the pass *)
}

(* Read-and-reset a gauge registered elsewhere (bdd_bridge); absent
   until the BDD layer is linked, hence the option. *)
let drain name =
  match Metrics.find name with
  | None -> 0
  | Some m ->
    let v = Metrics.value m in
    Metrics.set m 0;
    v

(* The BDD load gauges are drained into every open pass frame whenever
   a pass opens or closes, so each frame sees the maximum over exactly
   its own extent, nesting included. *)
let drain_gauges () =
  let u = drain "bdd.unique_load_pct" in
  let c = drain "bdd.cache_load_pct" in
  if u > 0 || c > 0 then
    List.iter
      (fun (f : Span_stack.frame) ->
        if u > f.unique_max then f.unique_max <- u;
        if c > f.cache_max then f.cache_max <- c)
      (Span_stack.passes ());
  (u, c)

(* --- JSON --- *)

(* [stable] omits the resource samples that legitimately vary run to
   run (wall, GC words, heap). *)
let buf_row ?(stable = false) b r =
  Buffer.add_string b
    (Printf.sprintf
       "{\"path\":\"%s\",\"index\":%d,\"size_before\":%d,\"size_after\":%d,\"depth_before\":%d,\"depth_after\":%d,\"luts\":%d,\"levels\":%d"
       (Json.escape r.path) r.index r.size_before r.size_after r.depth_before
       r.depth_after r.luts r.levels);
  (* Additive field: emitted only when the audit trail was live, so
     pre-fingerprint readers and snapshots are unaffected. The chain
     value is deterministic, so it belongs to the stable projection. *)
  if r.fingerprint <> 0L then
    Buffer.add_string b
      (Printf.sprintf ",\"fingerprint\":\"%016Lx\"" r.fingerprint);
  if not stable then begin
    Buffer.add_string b (Printf.sprintf ",\"wall_ns\":%Ld" r.wall_ns);
    Buffer.add_string b
      (Printf.sprintf ",\"minor_words\":%.0f,\"major_words\":%.0f,\"heap_words\":%d"
         r.minor_words r.major_words r.heap_words)
  end;
  Buffer.add_string b
    (Printf.sprintf
       ",\"unique_load_pct\":%d,\"cache_load_pct\":%d,\"dead_node_pct\":%d,\"counters\":"
       r.unique_load_pct r.cache_load_pct r.dead_node_pct);
  Json.buf_counters b r.counters;
  Buffer.add_char b '}'

let row_to_json ?stable r =
  let b = Buffer.create 256 in
  buf_row ?stable b r;
  Buffer.contents b

let rows_to_json ?stable rows =
  let b = Buffer.create 4096 in
  Json.buf_list b (buf_row ?stable) rows;
  Buffer.contents b

(* Missing numeric fields read as 0 except luts/levels, whose absent/-1
   value means "not probed"; an absent fingerprint is 0 (trail off). *)
let row_of_json j =
  let int key = Json.int key j and num key = Json.num key j in
  {
    path = Json.str "path" j;
    index = int "index";
    size_before = int "size_before";
    size_after = int "size_after";
    depth_before = int "depth_before";
    depth_after = int "depth_after";
    luts = Json.int ~default:(-1) "luts" j;
    levels = Json.int ~default:(-1) "levels" j;
    fingerprint =
      Option.value ~default:0L
        (Int64.of_string_opt ("0x" ^ Json.str "fingerprint" j));
    wall_ns = Int64.of_float (num "wall_ns");
    counters = Json.counters "counters" j;
    minor_words = num "minor_words";
    major_words = num "major_words";
    heap_words = int "heap_words";
    unique_load_pct = int "unique_load_pct";
    cache_load_pct = int "cache_load_pct";
    dead_node_pct = int "dead_node_pct";
  }
