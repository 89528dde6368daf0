(* The lib/par layer and the partition loop: pool semantics (ordering,
   degenerate sizes, exception protocol), the job-count setting, a
   watchdog abort skipping every partition, and the kernel engine's
   pinned result on bar. Also pins the BDD manager's allocation
   behaviour on a dec-sized run so the computed cache can never
   silently go unbounded again. *)

module Aig = Sbm_aig.Aig
module Epfl = Sbm_epfl.Epfl
module S = Sbm_obs.Stream
module Jobs = Sbm_par.Jobs
module Obs = Sbm_obs
module Pool = Sbm_par.Pool

(* --- pool --- *)

let test_pool_empty () =
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check int) "no jobs, no results" 0
    (Array.length (Pool.run pool 0 (fun _ -> Alcotest.fail "ran")))

let test_pool_ordering () =
  let pool = Pool.create ~jobs:4 in
  (* More workers than jobs... *)
  let r = Pool.run pool 2 (fun i -> 10 * i) in
  Alcotest.(check (array int)) "jobs > partitions" [| 0; 10 |] r;
  (* ...and more jobs than workers: results stay in index order
     regardless of which domain ran what. *)
  let r = Pool.run pool 100 (fun i -> i * i) in
  Alcotest.(check int) "batch size" 100 (Array.length r);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
    r

let test_pool_sequential_degenerate () =
  (* jobs = 1 spawns no domains and must run inline, in order. *)
  let pool = Pool.create ~jobs:1 in
  let order = ref [] in
  let r =
    Pool.run pool 5 (fun i ->
        order := i :: !order;
        i)
  in
  Alcotest.(check (array int)) "results" [| 0; 1; 2; 3; 4 |] r;
  Alcotest.(check (list int)) "strictly sequential" [ 4; 3; 2; 1; 0 ] !order

let test_pool_exception () =
  let pool = Pool.create ~jobs:4 in
  let executed = Atomic.make 0 in
  (* Indices are claimed in ascending order, so of two failing jobs
     the lower index always starts first and wins the re-raise. *)
  (match
     Pool.run pool 1000 (fun i ->
         Atomic.incr executed;
         if i = 5 then failwith "err5";
         if i = 7 then failwith "err7";
         i)
   with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "lowest failing index wins" "err5" msg);
  Alcotest.(check bool) "cancellation skipped pending jobs" true
    (Atomic.get executed < 1000);
  (* The pool survives a failed batch. *)
  let r = Pool.run pool 8 (fun i -> i + 1) in
  Alcotest.(check int) "usable after failure" 8 (Array.length r)

let test_jobs_setting () =
  let prev = Jobs.get () in
  Fun.protect
    ~finally:(fun () -> Jobs.set prev)
    (fun () ->
      Jobs.set 3;
      Alcotest.(check int) "set wins" 3 (Jobs.get ());
      Alcotest.check_raises "rejects zero"
        (Invalid_argument "Sbm_par.Jobs.set: jobs must be >= 1") (fun () ->
          Jobs.set 0))

(* --- watchdog abort: every partition skipped --- *)

(* A heap rule of 0 MB fires on the driver's first poll, so an
   Abort-armed watchdog skips every partition: each is counted in
   watchdog.partitions_skipped, and no partition work is counted. *)

(* The partition engines at partition size 10, over their native
   APIs, and the counter that holds each engine's partition count. *)
let abort_engines =
  let module C = Sbm_core in
  let limits =
    { Sbm_partition.Partition.default_limits with
      Sbm_partition.Partition.max_nodes = 10 }
  in
  [
    ( "diff",
      "diff.partitions",
      fun aig -> C.Diff_resub.run ~config:{ C.Diff_resub.default_config with limits } aig );
    ( "mspf",
      "mspf.partitions",
      fun aig -> C.Mspf.run ~config:{ C.Mspf.default_config with limits } aig );
    ( "kernel",
      "kernel.partitions",
      fun aig -> C.Hetero_kernel.run ~config:{ C.Hetero_kernel.partition_size = 10 } aig );
  ]

(* The nonzero registry deltas of [run input] under an Abort-armed
   0 MB heap rule. *)
let abort_run run input =
  Fun.protect
    ~finally:(fun () ->
      Obs.Watchdog.disarm ();
      S.close ())
    (fun () ->
      let _, totals =
        Helpers.with_totals (fun _ ->
            (* Armed after the root's opening poll, so the rule first
               fires at the driver's first poll. *)
            Obs.Watchdog.arm
              {
                Obs.Watchdog.default_config with
                max_heap_mb = Some 0.;
                action = Obs.Watchdog.Abort;
              };
            run input)
      in
      List.filter (fun (_, d) -> d <> 0) totals)

let test_abort_skips_partitions () =
  let input = Epfl.generate Epfl.Ctrl in
  List.iter
    (fun (name, partitions, run) ->
      let deltas = abort_run run input in
      let parts = Helpers.count deltas partitions in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d partitions (>= 2)" name parts)
        true (parts >= 2);
      Alcotest.(check (list (pair string int)))
        (name ^ ": every partition skipped, none worked on")
        [ (partitions, parts); ("watchdog.partitions_skipped", parts) ]
        deltas)
    abort_engines

(* --- the kernel engine on bar --- *)

(* On bar at scale 0.25 the kernel engine once returned a different
   AIG at jobs 4 than at jobs 1: partitions analysed on a network copy
   left the live network's node-id counter behind the sequential run's,
   and the ids reached extract_kernels' tie-breaks. The hash is the
   sequential run's. *)
let test_kernel_bar_pinned () =
  let input = Epfl.generate ~scale:0.25 Epfl.Bar in
  Alcotest.(check string) "bar: fold_hash" "0dbb95fbb19803e6"
    (Printf.sprintf "%016Lx" (Aig.fold_hash (Sbm_core.Hetero_kernel.run input)))

(* --- BDD manager allocation stays bounded --- *)

(* The computed cache and unique table are flat preallocated arrays
   (direct-mapped / open-addressing); a dec-sized sbm-low run must not
   allocate unboundedly on the major heap. The bound is ~2x the
   measured value at the time this test was written — an unbounded
   cache regression blows well past it. *)
let test_bdd_allocation_bounded () =
  let aig = Epfl.generate Epfl.Dec in
  let trace = Obs.create () in
  let root = Obs.root ~size:(Aig.size aig) ~depth:(Aig.depth aig) trace "dec" in
  let optimized =
    Sbm_core.Flow.run ~obs:root (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) aig
  in
  Obs.close ~size:(Aig.size optimized) ~depth:(Aig.depth optimized) root;
  match Obs.spans trace with
  | [ span ] ->
    let mwords = span.Obs.gc.Obs.major_words in
    Alcotest.(check bool)
      (Printf.sprintf "major allocation bounded (%.0f words)" mwords)
      true
      (mwords < 64e6)
  | _ -> Alcotest.fail "expected a single root span"

let suite =
  [
    Alcotest.test_case "pool: empty batch." `Quick test_pool_empty;
    Alcotest.test_case "pool: ordering and sizes." `Quick test_pool_ordering;
    Alcotest.test_case "pool: jobs=1 is inline." `Quick
      test_pool_sequential_degenerate;
    Alcotest.test_case "pool: exception cancels and re-raises." `Quick
      test_pool_exception;
    Alcotest.test_case "jobs: setting and validation." `Quick test_jobs_setting;
    Alcotest.test_case "watchdog: abort skips partitions at any job count."
      `Quick test_abort_skips_partitions;
    Alcotest.test_case "kernel: bar at scale 0.25 is pinned." `Quick
      test_kernel_bar_pinned;
    Alcotest.test_case "bdd: dec-sized allocation bounded." `Slow
      test_bdd_allocation_bounded;
  ]
