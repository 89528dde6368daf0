type t = {
  name : string;
  arity : int;
  tt : int64;
  area : float;
  input_cap : float;
  intrinsic : float;
  drive : float;
}

(* Truth-table helper over <= 4 variables, single word. *)
let tt_of_fun m f =
  let r = ref 0L in
  for i = 0 to (1 lsl m) - 1 do
    let bit j = (i lsr j) land 1 = 1 in
    if f bit then r := Int64.logor !r (Int64.shift_left 1L i)
  done;
  !r

let cell name arity f ~area ~cap ~intr ~drive =
  { name; arity; tt = tt_of_fun arity f; area; input_cap = cap; intrinsic = intr; drive }

let library =
  [
    cell "INV" 1 (fun b -> not (b 0)) ~area:1.0 ~cap:1.0 ~intr:0.3 ~drive:0.9;
    cell "BUF" 1 (fun b -> b 0) ~area:1.3 ~cap:1.0 ~intr:0.6 ~drive:0.6;
    cell "NAND2" 2 (fun b -> not (b 0 && b 1)) ~area:1.4 ~cap:1.1 ~intr:0.4 ~drive:1.0;
    cell "NOR2" 2 (fun b -> not (b 0 || b 1)) ~area:1.4 ~cap:1.2 ~intr:0.5 ~drive:1.2;
    cell "AND2" 2 (fun b -> b 0 && b 1) ~area:1.8 ~cap:1.0 ~intr:0.6 ~drive:0.8;
    cell "OR2" 2 (fun b -> b 0 || b 1) ~area:1.8 ~cap:1.0 ~intr:0.7 ~drive:0.9;
    cell "XOR2" 2 (fun b -> b 0 <> b 1) ~area:2.6 ~cap:1.6 ~intr:0.9 ~drive:1.1;
    cell "XNOR2" 2 (fun b -> b 0 = b 1) ~area:2.6 ~cap:1.6 ~intr:0.9 ~drive:1.1;
    cell "NAND3" 3 (fun b -> not (b 0 && b 1 && b 2)) ~area:2.0 ~cap:1.2 ~intr:0.5 ~drive:1.3;
    cell "NOR3" 3 (fun b -> not (b 0 || b 1 || b 2)) ~area:2.0 ~cap:1.3 ~intr:0.7 ~drive:1.6;
    cell "AOI21" 3 (fun b -> not ((b 0 && b 1) || b 2)) ~area:2.1 ~cap:1.2 ~intr:0.55 ~drive:1.3;
    cell "OAI21" 3 (fun b -> not ((b 0 || b 1) && b 2)) ~area:2.1 ~cap:1.2 ~intr:0.55 ~drive:1.3;
    cell "MUX2" 3 (fun b -> if b 2 then b 1 else b 0) ~area:2.9 ~cap:1.4 ~intr:0.8 ~drive:1.0;
    cell "AND4" 4 (fun b -> b 0 && b 1 && b 2 && b 3) ~area:2.7 ~cap:1.1 ~intr:0.9 ~drive:1.0;
    cell "AOI22" 4
      (fun b -> not ((b 0 && b 1) || (b 2 && b 3)))
      ~area:2.7 ~cap:1.3 ~intr:0.6 ~drive:1.4;
    cell "OAI22" 4
      (fun b -> not ((b 0 || b 1) && (b 2 || b 3)))
      ~area:2.7 ~cap:1.3 ~intr:0.6 ~drive:1.4;
  ]

let inverter = List.find (fun c -> c.name = "INV") library

(* Kept out of [library]: it matches no cut, and a network with an
   input derives its constants from that input instead. *)
let tie_low = cell "TIELO" 0 (fun _ -> false) ~area:1.0 ~cap:0.0 ~intr:0.0 ~drive:0.0

(* Apply pin permutation and input phases: the variant reads pin [p]
   from leaf [perm.(p)], complemented when bit [p] of [phases] is
   set. *)
let permute_tt m tt perm phases =
  tt_of_fun m (fun bit ->
      let cell_bit p = bit perm.(p) <> ((phases lsr p) land 1 = 1) in
      let idx = ref 0 in
      for p = 0 to m - 1 do
        if cell_bit p then idx := !idx lor (1 lsl p)
      done;
      Int64.logand (Int64.shift_right_logical tt !idx) 1L = 1L)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

let table : (int * int64, t * int array * int) Hashtbl.t option ref = ref None

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let match_table () =
  match !table with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 2048 in
    List.iter
      (fun c ->
        let pins = List.init c.arity (fun i -> i) in
        List.iter
          (fun perm_list ->
            let perm = Array.of_list perm_list in
            for phases = 0 to (1 lsl c.arity) - 1 do
              let tt = permute_tt c.arity c.tt perm phases in
              let key = (c.arity, tt) in
              (* Prefer fewer inverted pins, then smaller area. *)
              let score = c.area +. (0.4 *. float_of_int (popcount phases)) in
              match Hashtbl.find_opt t key with
              | Some (e, _, ep) when e.area +. (0.4 *. float_of_int (popcount ep)) <= score
                -> ()
              | Some _ | None -> Hashtbl.replace t key (c, perm, phases)
            done)
          (permutations pins))
      library;
    table := Some t;
    t
