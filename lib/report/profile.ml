type span = Sbm_obs.node

let of_json = Sbm_obs.of_json
let load = Sbm_obs.load
let self_ms = Sbm_obs.self_ms

type agg = { agg_name : string; calls : int; total_ms : float; self_ms : float }

let aggregate spans =
  List.map
    (fun (agg_name, (d : Sbm_obs.dist)) ->
      { agg_name; calls = d.count; total_ms = d.total_ms; self_ms = d.self_ms })
    (Sbm_obs.aggregate spans)
  |> List.sort (fun a b ->
         let c = compare b.self_ms a.self_ms in
         if c <> 0 then c else String.compare a.agg_name b.agg_name)

let pp_hotspots ?(top = 20) ppf spans =
  let aggs = aggregate spans in
  let total_self = List.fold_left (fun acc a -> acc +. a.self_ms) 0.0 aggs in
  let shown = List.filteri (fun i _ -> i < top) aggs in
  Fmt.pf ppf "%-28s %6s %12s %12s %7s@." "span" "calls" "total ms"
    "self ms" "self%";
  List.iter
    (fun a ->
      Fmt.pf ppf "%-28s %6d %12.3f %12.3f %6.1f%%@." a.agg_name a.calls
        a.total_ms a.self_ms
        (100.0 *. a.self_ms /. Float.max 1e-9 total_self))
    shown;
  if List.length aggs > top then
    Fmt.pf ppf "(%d more spans below the top %d)@." (List.length aggs - top) top

(* --- collapsed stacks (flamegraph.pl input) --- *)

(* One line per distinct stack: "root;child;leaf WEIGHT". Weights are
   integer self-time microseconds (flamegraph.pl requires integer
   sample counts); identical stacks are merged. Semicolons inside span
   names would corrupt the stack separator, so they are rewritten. *)
let to_collapsed spans =
  let weights : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let frame name =
    String.map (fun c -> if c = ';' then ':' else c) name
  in
  let rec walk path (s : span) =
    let stack = if path = "" then frame s.name else path ^ ";" ^ frame s.name in
    (match Hashtbl.find_opt weights stack with
    | Some w -> Hashtbl.replace weights stack (w +. self_ms s)
    | None ->
      Hashtbl.add weights stack (self_ms s);
      order := stack :: !order);
    List.iter (walk stack) s.children
  in
  List.iter (walk "") spans;
  List.rev !order
  |> List.filter_map (fun stack ->
         let us =
           int_of_float (Float.round (1000.0 *. Hashtbl.find weights stack))
         in
         if us > 0 then Some (Printf.sprintf "%s %d" stack us) else None)

let write_collapsed spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun line -> output_string oc (line ^ "\n")) (to_collapsed spans))
