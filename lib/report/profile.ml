type span = { name : string; wall_ms : float; children : span list }

(* --- loading --- *)

let rec span_of_json j =
  {
    name = Json.str ~default:"?" "name" j;
    wall_ms = Json.num "wall_ms" j;
    children = List.map span_of_json (Json.to_list (Json.member "children" j));
  }

let of_json s =
  match Json.parse s with
  | exception Json.Bad msg -> Error ("malformed JSON: " ^ msg)
  | json -> (
    match Json.member "spans" json with
    | None -> Error "not a trace: missing \"spans\""
    | Some (Json.List l) -> Ok (List.map span_of_json l)
    | Some _ -> Error "not a trace: \"spans\" is not an array")

let load path =
  Result.bind (Json.read_source path) (fun s ->
      let label = if path = "-" then "stdin" else path in
      match String.trim s with
      | "" -> Error (label ^ ": empty input")
      | s -> Result.map_error (fun msg -> label ^ ": " ^ msg) (of_json s))

(* --- aggregation --- *)

let children_ms s = List.fold_left (fun acc c -> acc +. c.wall_ms) 0.0 s.children

(* Self time = wall time minus time attributed to children; clamped at
   0 against clock jitter between a span and its children. *)
let self_ms s = Float.max 0.0 (s.wall_ms -. children_ms s)

type agg = { agg_name : string; calls : int; total_ms : float; self_ms : float }

let aggregate spans =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
  let rec walk s =
    let calls, total, self =
      Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
    in
    Hashtbl.replace tbl s.name
      (calls + 1, total +. s.wall_ms, self +. self_ms s);
    List.iter walk s.children
  in
  List.iter walk spans;
  Hashtbl.fold
    (fun agg_name (calls, total_ms, self_ms) acc ->
      { agg_name; calls; total_ms; self_ms } :: acc)
    tbl []
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
  let rec walk path s =
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
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_collapsed spans))
