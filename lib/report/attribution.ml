module Aig = Sbm_aig.Aig
module Lut_map = Sbm_lutmap.Lut_map

type row = {
  pass : string;
  kind : Aig.Origin.kind;
  created : int;
  live : int;
  live_pct : float;
  luts : int;
  lut_pct : float;
}

type t = {
  total_live : int;
  total_luts : int;
  rows : row list; (* one per distinct origin, live share descending *)
  engines : row list; (* aggregated by kind; [pass] holds the kind name *)
}

let pct part total = 100.0 *. float_of_int part /. float_of_int (max 1 total)

let compute aig (mapping : Lut_map.mapping) =
  let stats = Aig.origin_stats aig in
  (* Attribute each mapped LUT to the origin of its root node: the LUT
     exists because that node survived to the mapped netlist. *)
  let lut_counts : (Aig.Origin.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (lut : Lut_map.lut) ->
      let o = Aig.node_origin aig lut.Lut_map.root in
      Hashtbl.replace lut_counts o
        (1 + Option.value ~default:0 (Hashtbl.find_opt lut_counts o)))
    mapping.Lut_map.luts;
  let total_live = List.fold_left (fun acc (_, _, live) -> acc + live) 0 stats in
  let total_luts = mapping.Lut_map.lut_count in
  let rows =
    List.map
      (fun ((o : Aig.Origin.t), created, live) ->
        let luts = Option.value ~default:0 (Hashtbl.find_opt lut_counts o) in
        {
          pass = o.Aig.Origin.pass;
          kind = o.Aig.Origin.kind;
          created;
          live;
          live_pct = pct live total_live;
          luts;
          lut_pct = pct luts total_luts;
        })
      stats
    |> List.filter (fun r -> r.live > 0 || r.created > 0 || r.luts > 0)
    |> List.sort (fun a b ->
           let c = compare b.live a.live in
           if c <> 0 then c else String.compare a.pass b.pass)
  in
  (* Engine-level view: collapse passes by move kind. *)
  let by_kind : (Aig.Origin.kind, row) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let acc =
        Option.value
          ~default:
            {
              pass = Aig.Origin.kind_to_string r.kind;
              kind = r.kind;
              created = 0;
              live = 0;
              live_pct = 0.0;
              luts = 0;
              lut_pct = 0.0;
            }
          (Hashtbl.find_opt by_kind r.kind)
      in
      Hashtbl.replace by_kind r.kind
        {
          acc with
          created = acc.created + r.created;
          live = acc.live + r.live;
          luts = acc.luts + r.luts;
        })
    rows;
  let engines =
    Hashtbl.fold (fun _ r acc -> r :: acc) by_kind []
    |> List.map (fun r ->
           { r with live_pct = pct r.live total_live; lut_pct = pct r.luts total_luts })
    |> List.sort (fun a b ->
           let c = compare b.live a.live in
           if c <> 0 then c else String.compare a.pass b.pass)
  in
  { total_live; total_luts; rows; engines }

(* --- rendering --- *)

let survival_cell ppf r =
  (* A rebuild can expand a pass's cone in place, so survival is not
     clamped; "-" marks origins that never created (only adopted). *)
  if r.created = 0 then Fmt.pf ppf "%8s" "-"
  else Fmt.pf ppf "%7.1f%%" (pct r.live r.created)

let pp_rows ~header ppf rows =
  Fmt.pf ppf "%-28s %8s %8s %8s %8s %8s %8s@." header "created" "live"
    "live%" "surv%" "luts" "lut%";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-28s %8d %8d %7.1f%% %a %8d %7.1f%%@." r.pass r.created
        r.live r.live_pct survival_cell r r.luts r.lut_pct)
    rows

let pp ppf t =
  Fmt.pf ppf "final AIG: %d live AND nodes, %d mapped LUT-6s@.@."
    t.total_live t.total_luts;
  pp_rows ~header:"engine (move kind)" ppf t.engines;
  Fmt.pf ppf "@.";
  pp_rows ~header:"pass" ppf t.rows

let row_to_json r =
  Printf.sprintf
    "{\"pass\":\"%s\",\"kind\":\"%s\",\"created\":%d,\"live\":%d,\"live_pct\":%.3f,\"luts\":%d,\"lut_pct\":%.3f}"
    (Json.escape r.pass)
    (Aig.Origin.kind_to_string r.kind)
    r.created r.live r.live_pct r.luts r.lut_pct

let to_json t =
  Printf.sprintf
    "{\"total_live\":%d,\"total_luts\":%d,\"engines\":[%s],\"passes\":[%s]}"
    t.total_live t.total_luts
    (String.concat "," (List.map row_to_json t.engines))
    (String.concat "," (List.map row_to_json t.rows))
