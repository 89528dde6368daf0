external monotonic_ns : unit -> (int64[@unboxed])
  = "sbm_obs_monotonic_ns_byte" "sbm_obs_monotonic_ns"
[@@noalloc]

type frame = {
  name : string;
  pass : bool;
  path : string;
  t0 : int64;
  size0 : int;
  depth0 : int;
  gc0 : Gc.stat;
  counters0 : Metrics.snapshot;
  mutable deadline_fired : bool;
  mutable unique_max : int;
  mutable cache_max : int;
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
  let below = if root then [] else !stack in
  let path =
    if not pass then ""
    else
      match List.find_opt (fun f -> f.pass) below with
      | Some p -> p.path ^ "/" ^ name
      | None -> name
  in
  let f =
    {
      name;
      pass;
      path;
      t0 = monotonic_ns ();
      size0 = size;
      depth0 = depth;
      gc0 = Gc.quick_stat ();
      counters0 = Metrics.snapshot ();
      deadline_fired = false;
      unique_max = 0;
      cache_max = 0;
    }
  in
  stack := f :: below;
  f

let pop f =
  let rec drop = function
    | g :: rest when g == f -> Some rest
    | _ :: rest -> drop rest
    | [] -> None
  in
  match drop !stack with Some rest -> stack := rest | None -> ()
