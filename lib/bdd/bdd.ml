type t = int

exception Limit

(* Node 0 = terminal false, node 1 = terminal true. Internal nodes
   store (var, low, high) in parallel growable arrays; the unique table
   guarantees strong canonicity (paper Section IV-C relies on it for
   cheap global queries).

   Both hot-path tables are flat int arrays, so a probe allocates
   nothing and touches at most a couple of cache lines:

   - The unique table is open-addressing with linear probing over a
     power-of-two array of node ids (0 = empty; terminals are never
     entered). Every internal node is registered, so the load factor
     is (n-2)/capacity and the table doubles at 3/4 load.

   - The computed cache is direct-mapped: 4 words per slot
     [tag; operand2; operand3; result] with the opcode packed into the
     tag alongside the first operand. A colliding entry is simply
     overwritten, which bounds the cache by construction (the previous
     Hashtbl-based cache grew without limit and even accumulated
     duplicate bindings). Eviction is invisible to callers: a
     recomputation replays [mk] on triples that already exist, hits
     the unique table, and returns the same node ids, so results --
     and the allocation order of genuinely new nodes -- are
     bit-identical to an unbounded cache. *)
type man = {
  mutable var_of : int array;
  mutable low_of : int array;
  mutable high_of : int array;
  mutable n : int;
  mutable unique : int array;
  mutable unique_mask : int;
  mutable cache : int array;
  mutable cache_mask : int;
  node_limit : int;
  (* Telemetry (Sbm_obs): unique-table and computed-cache traffic.
     Plain increments so the hot paths stay hot; engines read them
     once per partition via [stats]. *)
  mutable unique_hits : int;
  mutable unique_misses : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  (* Occupancy of the computed cache: slots with a non-zero tag. A
     valid tag is never 0 (the first operand is an internal node, so
     >= 2), so stores into an empty slot are detectable in O(1). *)
  mutable cache_occupied : int;
}

type stats = {
  nodes : int;
  unique_hits : int;
  unique_misses : int;
  cache_hits : int;
  cache_misses : int;
  unique_capacity : int;
  cache_slots : int;
  cache_occupied : int;
}

let terminal_var = max_int

(* Slots in the computed cache stop doubling here (slots * 4 words);
   past this point collisions recompute, which is still cheap. *)
let max_cache_slots = 1 lsl 19

let create ?(node_limit = max_int) () =
  let cap = 1024 in
  {
    var_of = Array.make cap terminal_var;
    low_of = Array.make cap (-1);
    high_of = Array.make cap (-1);
    n = 2;
    unique = Array.make 1024 0;
    unique_mask = 1023;
    cache = Array.make (1024 * 4) 0;
    cache_mask = 1023;
    node_limit;
    unique_hits = 0;
    unique_misses = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_occupied = 0;
  }

let stats man =
  {
    nodes = man.n;
    unique_hits = man.unique_hits;
    unique_misses = man.unique_misses;
    cache_hits = man.cache_hits;
    cache_misses = man.cache_misses;
    unique_capacity = man.unique_mask + 1;
    cache_slots = man.cache_mask + 1;
    cache_occupied = man.cache_occupied;
  }

let num_nodes man = man.n
let zero _ = 0
let one _ = 1
let is_zero _ b = b = 0
let is_one _ b = b = 1

let var man b =
  if b < 2 then invalid_arg "Bdd.var: terminal";
  man.var_of.(b)

let low man b =
  if b < 2 then invalid_arg "Bdd.low: terminal";
  man.low_of.(b)

let high man b =
  if b < 2 then invalid_arg "Bdd.high: terminal";
  man.high_of.(b)

let grow man =
  let cap = Array.length man.var_of in
  let ncap = 2 * cap in
  let extend a fill =
    let a' = Array.make ncap fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  man.var_of <- extend man.var_of terminal_var;
  man.low_of <- extend man.low_of (-1);
  man.high_of <- extend man.high_of (-1)

let hash3 v lo hi =
  let h = (v * 0x9e3779b9) + (lo * 0x85ebca6b) + (hi * 0xc2b2ae35) in
  h lxor (h lsr 17)

(* Probe the unique table for (v, lo, hi): a node id (>= 2) when
   present, [-slot - 1] of the first empty slot otherwise. *)
let rec unique_probe man v lo hi i =
  let node = man.unique.(i) in
  if node = 0 then -i - 1
  else if
    man.var_of.(node) = v && man.low_of.(node) = lo && man.high_of.(node) = hi
  then node
  else unique_probe man v lo hi ((i + 1) land man.unique_mask)

let unique_insert tbl mask man node =
  let i = ref (hash3 man.var_of.(node) man.low_of.(node) man.high_of.(node)
               land mask)
  in
  while tbl.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  tbl.(!i) <- node

let unique_grow man =
  let ncap = 2 * Array.length man.unique in
  let tbl = Array.make ncap 0 in
  let mask = ncap - 1 in
  for node = 2 to man.n - 1 do
    unique_insert tbl mask man node
  done;
  man.unique <- tbl;
  man.unique_mask <- mask;
  (* Scale the computed cache with the node population; dropping the
     old entries is safe (see the cache invariant above). *)
  let cache_slots = man.cache_mask + 1 in
  if cache_slots < ncap && cache_slots < max_cache_slots then begin
    man.cache <- Array.make (cache_slots * 2 * 4) 0;
    man.cache_mask <- (cache_slots * 2) - 1;
    man.cache_occupied <- 0
  end

let mk man v lo hi =
  if lo = hi then lo
  else begin
    let r = unique_probe man v lo hi (hash3 v lo hi land man.unique_mask) in
    if r >= 0 then begin
      man.unique_hits <- man.unique_hits + 1;
      r
    end
    else begin
      man.unique_misses <- man.unique_misses + 1;
      if man.n >= man.node_limit then raise Limit;
      if man.n >= Array.length man.var_of then grow man;
      let node = man.n in
      man.n <- node + 1;
      man.var_of.(node) <- v;
      man.low_of.(node) <- lo;
      man.high_of.(node) <- hi;
      man.unique.(-r - 1) <- node;
      if (man.n - 2) * 4 > (man.unique_mask + 1) * 3 then unique_grow man;
      node
    end
  end

let ithvar man i =
  if i < 0 then invalid_arg "Bdd.ithvar";
  mk man i 0 1

let topvar man b = if b < 2 then terminal_var else man.var_of.(b)

(* Opcodes for the computed cache. The tag word packs the opcode with
   the first operand: tag = (a lsl 20) lor op. The first operand is
   always an internal node (>= 2), so a valid tag is non-zero and 0
   marks an empty slot. Opcodes stay well under 2^20
   (op_compose_base + var for the largest), and node ids under 2^42
   keep the shift exact on 63-bit ints. *)
let op_and = 0
let op_xor = 1
let op_ite = 3
let op_exists = 4
let op_restrict0 = 5
let op_restrict1 = 6
let op_compose_base = 16 (* op_compose_base + var *)

let cache_slot man op a b c =
  let h = (a * 0x9e3779b9) lxor (b * 0x85ebca6b) lxor (c * 0xc2b2ae35) lxor op in
  let h = h lxor (h lsr 15) in
  (h land man.cache_mask) lsl 2

(* The cached result (>= 0) or -1 on a miss. *)
let cache_find man op a b c =
  let i = cache_slot man op a b c in
  let cache = man.cache in
  if cache.(i) = (a lsl 20) lor op && cache.(i + 1) = b && cache.(i + 2) = c
  then begin
    man.cache_hits <- man.cache_hits + 1;
    cache.(i + 3)
  end
  else begin
    man.cache_misses <- man.cache_misses + 1;
    -1
  end

let cache_store man op a b c r =
  (* Recompute the slot: recursive calls may have grown the cache. *)
  let i = cache_slot man op a b c in
  let cache = man.cache in
  if cache.(i) = 0 then man.cache_occupied <- man.cache_occupied + 1;
  cache.(i) <- (a lsl 20) lor op;
  cache.(i + 1) <- b;
  cache.(i + 2) <- c;
  cache.(i + 3) <- r

let rec mand man a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then b
  else if b = 1 then a
  else if a = b then a
  else begin
    let a, b = if a < b then (a, b) else (b, a) in
    let r = cache_find man op_and a b 0 in
    if r >= 0 then r
    else begin
      let va = topvar man a and vb = topvar man b in
      let v = min va vb in
      let a0, a1 = if va = v then (man.low_of.(a), man.high_of.(a)) else (a, a) in
      let b0, b1 = if vb = v then (man.low_of.(b), man.high_of.(b)) else (b, b) in
      let lo = mand man a0 b0 in
      let hi = mand man a1 b1 in
      let r = mk man v lo hi in
      cache_store man op_and a b 0 r;
      r
    end
  end

let rec mxor man a b =
  if a = b then 0
  else if a = 0 then b
  else if b = 0 then a
  else begin
    let a, b = if a < b then (a, b) else (b, a) in
    let r = cache_find man op_xor a b 0 in
    if r >= 0 then r
    else begin
      let va = topvar man a and vb = topvar man b in
      let v = min va vb in
      let a0, a1 = if va = v then (man.low_of.(a), man.high_of.(a)) else (a, a) in
      let b0, b1 = if vb = v then (man.low_of.(b), man.high_of.(b)) else (b, b) in
      let lo = mxor man a0 b0 in
      let hi = mxor man a1 b1 in
      let r = mk man v lo hi in
      cache_store man op_xor a b 0 r;
      r
    end
  end

let mnot man a = mxor man a 1
let mor man a b = mnot man (mand man (mnot man a) (mnot man b))
let mxnor man a b = mnot man (mxor man a b)

let rec ite man c a b =
  if c = 1 then a
  else if c = 0 then b
  else if a = b then a
  else if a = 1 && b = 0 then c
  else begin
    let r = cache_find man op_ite c a b in
    if r >= 0 then r
    else begin
      let v = min (topvar man c) (min (topvar man a) (topvar man b)) in
      let cof x side =
        if topvar man x = v then (if side then man.high_of.(x) else man.low_of.(x))
        else x
      in
      let lo = ite man (cof c false) (cof a false) (cof b false) in
      let hi = ite man (cof c true) (cof a true) (cof b true) in
      let r = mk man v lo hi in
      cache_store man op_ite c a b r;
      r
    end
  end

let restrict man b i v =
  let op = if v then op_restrict1 else op_restrict0 in
  let rec go b =
    if b < 2 then b
    else begin
      let bv = man.var_of.(b) in
      if bv > i then b
      else if bv = i then (if v then man.high_of.(b) else man.low_of.(b))
      else begin
        let r = cache_find man op b i 0 in
        if r >= 0 then r
        else begin
          let r = mk man bv (go man.low_of.(b)) (go man.high_of.(b)) in
          cache_store man op b i 0 r;
          r
        end
      end
    end
  in
  go b

let compose man b i g =
  let op = op_compose_base + i in
  let rec go b =
    if b < 2 then b
    else begin
      let bv = man.var_of.(b) in
      if bv > i then b
      else begin
        let r = cache_find man op b g 0 in
        if r >= 0 then r
        else begin
          let r =
            if bv = i then ite man g man.high_of.(b) man.low_of.(b)
            else begin
              let lo = go man.low_of.(b) in
              let hi = go man.high_of.(b) in
              (* The substituted children may have top variables above
                 [bv]; rebuild with ite on the variable. *)
              ite man (ithvar man bv) hi lo
            end
          in
          cache_store man op b g 0 r;
          r
        end
      end
    end
  in
  go b

let exists man b vars =
  let sorted = List.sort_uniq Stdlib.compare vars in
  let is_quantified v = List.mem v sorted in
  let vars_hash = Hashtbl.hash sorted in
  let rec go b =
    if b < 2 then b
    else begin
      let r = cache_find man op_exists b vars_hash 0 in
      if r >= 0 then r
      else begin
        let v = man.var_of.(b) in
        let lo = go man.low_of.(b) in
        let hi = go man.high_of.(b) in
        let r =
          if is_quantified v then mor man lo hi else ite man (ithvar man v) hi lo
        in
        cache_store man op_exists b vars_hash 0 r;
        r
      end
    end
  in
  go b

let iter_reachable man b f =
  let seen = Hashtbl.create 64 in
  let rec go b =
    if b >= 2 && not (Hashtbl.mem seen b) then begin
      Hashtbl.add seen b ();
      f b;
      go man.low_of.(b);
      go man.high_of.(b)
    end
  in
  go b

let support man b =
  let vars = Hashtbl.create 16 in
  iter_reachable man b (fun node -> Hashtbl.replace vars man.var_of.(node) ());
  List.sort Stdlib.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let size man b =
  let count = ref 0 in
  iter_reachable man b (fun _ -> incr count);
  !count

let eval_word man b ~leaf =
  let memo = Hashtbl.create 64 in
  let rec go b =
    if b = 0 then 0L
    else if b = 1 then -1L
    else
      match Hashtbl.find_opt memo b with
      | Some w -> w
      | None ->
        let v = leaf man.var_of.(b) in
        let w =
          Int64.logor
            (Int64.logand v (go man.high_of.(b)))
            (Int64.logand (Int64.lognot v) (go man.low_of.(b)))
        in
        Hashtbl.add memo b w;
        w
  in
  go b

let count_sat man b ~nvars =
  let memo = Hashtbl.create 64 in
  (* fraction of assignments under [b] *)
  let rec frac b =
    if b = 0 then 0.0
    else if b = 1 then 1.0
    else
      match Hashtbl.find_opt memo b with
      | Some f -> f
      | None ->
        let f = 0.5 *. (frac man.low_of.(b) +. frac man.high_of.(b)) in
        Hashtbl.add memo b f;
        f
  in
  frac b *. (2.0 ** float_of_int nvars)

let eval man b assignment =
  let rec go b =
    if b = 0 then false
    else if b = 1 then true
    else if (assignment lsr man.var_of.(b)) land 1 = 1 then go man.high_of.(b)
    else go man.low_of.(b)
  in
  go b

let any_sat man b =
  let rec go b acc =
    if b = 0 then None
    else if b = 1 then Some (List.rev acc)
    else begin
      let v = man.var_of.(b) in
      if man.high_of.(b) <> 0 then go man.high_of.(b) ((v, true) :: acc)
      else go man.low_of.(b) ((v, false) :: acc)
    end
  in
  go b []

let of_tt man tt =
  let n = Sbm_truthtable.Tt.num_vars tt in
  let memo = Hashtbl.create 64 in
  let rec build tt i =
    match Hashtbl.find_opt memo (tt, i) with
    | Some b -> b
    | None ->
      let b =
        if Sbm_truthtable.Tt.is_const0 tt then 0
        else if Sbm_truthtable.Tt.is_const1 tt then 1
        else begin
          assert (i < n);
          let lo = build (Sbm_truthtable.Tt.cofactor0 tt i) (i + 1) in
          let hi = build (Sbm_truthtable.Tt.cofactor1 tt i) (i + 1) in
          mk man i lo hi
        end
      in
      Hashtbl.add memo (tt, i) b;
      b
  in
  build tt 0

let to_tt man b ~nvars =
  let module Tt = Sbm_truthtable.Tt in
  let memo = Hashtbl.create 64 in
  let rec go b =
    if b = 0 then Tt.const0 nvars
    else if b = 1 then Tt.const1 nvars
    else
      match Hashtbl.find_opt memo b with
      | Some tt -> tt
      | None ->
        let v = man.var_of.(b) in
        if v >= nvars then invalid_arg "Bdd.to_tt: support exceeds nvars";
        let tt =
          Tt.ite (Tt.var nvars v) (go man.high_of.(b)) (go man.low_of.(b))
        in
        Hashtbl.add memo b tt;
        tt
  in
  go b
