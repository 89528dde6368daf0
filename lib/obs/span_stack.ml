external monotonic_ns : unit -> (int64[@unboxed])
  = "sbm_obs_monotonic_ns_byte" "sbm_obs_monotonic_ns"
[@@noalloc]

type frame = {
  name : string;
  pass : bool;
  t0 : int64;
  mutable t1 : int64;
  mutable size0 : int;
  mutable size1 : int;
  mutable depth0 : int;
  mutable depth1 : int;
  gc0 : Gc.stat;
  mutable gc1 : Gc.stat option;
  counters0 : Metrics.snapshot;
  mutable delta : (string * int * int) list;
  mutable children : frame list;
  mutable deadline_fired : bool;
  mutable unique_max : int;
  mutable cache_max : int;
  mutable luts : int;
  mutable levels : int;
  mutable dead_node_pct : int;
  mutable fingerprint : int64;
}

(* Innermost first. Only the main domain pushes, pops and reads. *)
let stack : frame list ref = ref []

let frames () = !stack
let passes () = List.filter (fun f -> f.pass) !stack

let names ?(passes_only = false) () =
  List.fold_left
    (fun acc f -> if passes_only && not f.pass then acc else f.name :: acc)
    [] !stack

let push ?(root = false) ?(pass = false) ?(size = -1) ?(depth = -1) name =
  let f =
    {
      name;
      pass;
      t0 = monotonic_ns ();
      t1 = 0L;
      size0 = size;
      size1 = -1;
      depth0 = depth;
      depth1 = -1;
      gc0 = Gc.quick_stat ();
      gc1 = None;
      counters0 = Metrics.snapshot ();
      delta = [];
      children = [];
      deadline_fired = false;
      unique_max = 0;
      cache_max = 0;
      luts = -1;
      levels = -1;
      dead_node_pct = 0;
      fingerprint = 0L;
    }
  in
  stack := f :: (if root then [] else !stack);
  f

let stop f =
  if f.t1 = 0L then begin
    f.t1 <- monotonic_ns ();
    f.gc1 <- Some (Gc.quick_stat ());
    f.delta <- Metrics.activity f.counters0 (Metrics.snapshot ())
  end

let pop f =
  let rec drop = function
    | g :: rest when g == f -> Some rest
    | _ :: rest -> drop rest
    | [] -> None
  in
  match drop !stack with Some rest -> stack := rest | None -> ()
