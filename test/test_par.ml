(* The domain-parallel partition scheduler: pool semantics (ordering,
   degenerate sizes, exception protocol), flight-recorder worker
   buffering, and the headline determinism contract — running the
   quick benches at jobs=4 must produce byte-identical QoR, counter
   totals and attribution shares to jobs=1, and the kernel engine
   must return one AIG on bar at any job count. Also pins the BDD
   manager's allocation behaviour on a dec-sized run so the computed
   cache can never silently go unbounded again. *)

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
  Helpers.with_jobs 1 (fun () ->
      Jobs.set 3;
      Alcotest.(check int) "set wins" 3 (Jobs.get ());
      Alcotest.check_raises "rejects zero"
        (Invalid_argument "Sbm_par.Jobs.set: jobs must be >= 1") (fun () ->
          Jobs.set 0))

(* Nested job-count overrides unwind to the enclosing count, not to
   1: under SBM_JOBS=2 every later suite must still run at 2. *)
let test_with_jobs_restores () =
  let outer = Jobs.get () in
  Helpers.with_jobs 3 (fun () ->
      Helpers.with_jobs 2 (fun () ->
          Alcotest.(check int) "inside" 2 (Jobs.get ()));
      Alcotest.(check int) "inner override restored" 3 (Jobs.get ()));
  Alcotest.(check int) "outer override restored" outer (Jobs.get ())

(* --- flight recorder worker buffering --- *)

(* A worker domain records into its shard; the main domain replays it. *)
let test_fr_capture_replay () =
  Fun.protect ~finally:S.close (fun () ->
      S.enable_recorder ();
      S.append ~engine:"main" "before";
      let r, shard =
        Domain.join
          (Domain.spawn (fun () ->
               Obs.capture (fun () ->
                   S.append ~engine:"worker" ~metrics:[ ("k", 1) ] "buffered-1";
                   S.append ~engine:"worker" "buffered-2";
                   42)))
      in
      Alcotest.(check int) "capture returns the result" 42 r;
      Alcotest.(check int) "ring untouched while buffering" 1 (S.recorded ());
      Obs.replay shard;
      Alcotest.(check int) "replay appends to the ring" 3 (S.recorded ());
      let seqs = List.map (fun e -> e.S.seq) (S.events ()) in
      Alcotest.(check (list int)) "fresh sequence numbers" [ 0; 1; 2 ] seqs;
      let engines = List.map (fun e -> e.S.engine) (S.events ()) in
      Alcotest.(check (list string)) "merge order is caller-chosen"
        [ "main"; "worker"; "worker" ] engines)

(* --- determinism: jobs=4 == jobs=1, bit for bit --- *)

(* The fingerprint of a run is the library's determinism audit trail
   (the linked records of Sbm_obs.Stream): one composite record per pass and merge
   boundary, so a mismatch names the exact first boundary where the
   two schedules disagreed instead of just "counters differ". QoR and
   attribution ride along as a belt-and-braces check. *)
type run_fingerprint = {
  size : int;
  depth : int;
  luts : int;
  levels : int;
  counters : (string * int) list;
  attribution : string;
  trail : Obs.Stream.link list;
}

let fingerprint jobs b =
  Helpers.with_jobs jobs (fun () ->
      Obs.Stream.enable_trail ();
      Fun.protect ~finally:Obs.Stream.close (fun () ->
          let aig = Epfl.generate b in
          let trace = Obs.create () in
          let root =
            Obs.root ~size:(Aig.size aig) ~depth:(Aig.depth aig) trace
              (Epfl.name b)
          in
          let optimized =
            Sbm_core.Flow.run ~obs:root (Sbm_core.Flow.Sbm Sbm_core.Flow.Low)
              aig
          in
          Obs.close ~size:(Aig.size optimized) ~depth:(Aig.depth optimized)
            root;
          let mapping = Sbm_lutmap.Lut_map.map ~k:6 optimized in
          {
            size = Aig.size optimized;
            depth = Aig.depth optimized;
            luts = mapping.Sbm_lutmap.Lut_map.lut_count;
            levels = mapping.Sbm_lutmap.Lut_map.depth;
            counters = Obs.totals trace;
            attribution =
              Sbm_report.Attribution.to_json
                (Sbm_report.Attribution.compute optimized mapping);
            trail = Obs.Stream.trail ();
          }))

let check_deterministic b =
  let name = Epfl.name b in
  let seq = fingerprint 1 b in
  let par = fingerprint 4 b in
  (* Trail comparison first: on failure the auditor names the first
     diverging pass/partition boundary rather than a bare mismatch. *)
  (match Sbm_report.Audit.compare_trails seq.trail par.trail with
  | Sbm_report.Audit.Identical n ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: trail non-empty (%d records)" name n)
      true (n > 0)
  | Sbm_report.Audit.Diverged d ->
    Alcotest.failf "%s: jobs=1 vs jobs=4, %s" name
      (Sbm_report.Audit.describe d));
  Alcotest.(check int) (name ^ ": size") seq.size par.size;
  Alcotest.(check int) (name ^ ": depth") seq.depth par.depth;
  Alcotest.(check int) (name ^ ": luts") seq.luts par.luts;
  Alcotest.(check int) (name ^ ": levels") seq.levels par.levels;
  Alcotest.(check (list (pair string int)))
    (name ^ ": counter totals")
    seq.counters par.counters;
  (* The flow defaults the prefilter on, so its counters must appear
     in the totals — and, being part of the compared lists above, be
     bit-identical across jobs. *)
  Alcotest.(check bool)
    (name ^ ": prefilter counters present")
    true
    (List.mem_assoc "prefilter.survivors" seq.counters);
  Alcotest.(check string)
    (name ^ ": attribution shares")
    seq.attribution par.attribution

let test_determinism_quick_set () =
  List.iter check_deterministic Epfl.quick_set

(* --- watchdog abort: skipped partitions are jobs-independent --- *)

(* A heap rule of 0 MB fires on the driver's first poll, so an
   Abort-armed watchdog skips every partition. The skip must look the
   same at any job count: same network, same registry deltas, and
   every partition counted in watchdog.partitions_skipped. At jobs 4
   the abort is pending at the first partition, so no chunk is ever
   analyzed. *)

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

(* The output and the nonzero registry deltas of [run input] at
   [jobs], under an Abort-armed 0 MB heap rule. *)
let abort_run run input jobs =
  Helpers.with_jobs jobs (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Obs.Watchdog.disarm ();
          S.close ())
        (fun () ->
          let out, totals =
            Helpers.with_totals (fun _ ->
                (* Armed after the root's opening poll, so the rule
                   first fires at the driver's first poll. *)
                Obs.Watchdog.arm
                  {
                    Obs.Watchdog.default_config with
                    max_heap_mb = Some 0.;
                    action = Obs.Watchdog.Abort;
                  };
                run input)
          in
          (Sbm_aig.Aiger.write out, List.filter (fun (_, d) -> d <> 0) totals)))

let test_abort_skips_partitions () =
  let input = Epfl.generate Epfl.Ctrl in
  List.iter
    (fun (name, partitions, run) ->
      let out1, deltas1 = abort_run run input 1 in
      let out4, deltas4 = abort_run run input 4 in
      let parts = Helpers.count deltas1 partitions in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d partitions (>= 2)" name parts)
        true (parts >= 2);
      Alcotest.(check string) (name ^ ": network") out1 out4;
      Alcotest.(check (list (pair string int)))
        (name ^ ": registry deltas") deltas1 deltas4;
      Alcotest.(check (option int))
        (name ^ ": every partition skipped")
        (Some parts)
        (List.assoc_opt "watchdog.partitions_skipped" deltas1))
    abort_engines

(* --- the kernel engine: one result at any job count --- *)

(* On bar at scale 0.25 the kernel engine once returned a different
   AIG at jobs 4 than at jobs 1: partitions analysed on a network copy
   left the live network's node-id counter behind the sequential run's,
   and the ids reached extract_kernels' tie-breaks. *)
let test_kernel_jobs_independent () =
  let input = Epfl.generate ~scale:0.25 Epfl.Bar in
  let digest jobs =
    Helpers.with_jobs jobs (fun () ->
        Printf.sprintf "%016Lx" (Aig.fold_hash (Sbm_core.Hetero_kernel.run input)))
  in
  Alcotest.(check string) "bar: jobs 4 equals jobs 1" (digest 1) (digest 4)

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
    Alcotest.test_case "jobs: with_jobs restores the enclosing count." `Quick
      test_with_jobs_restores;
    Alcotest.test_case "flight recorder: capture and replay." `Quick
      test_fr_capture_replay;
    Alcotest.test_case "determinism: jobs=4 equals jobs=1 on the quick set."
      `Slow test_determinism_quick_set;
    Alcotest.test_case "watchdog: abort skips partitions at any job count."
      `Quick test_abort_skips_partitions;
    Alcotest.test_case "kernel: bar gives one AIG at jobs 1 and 4." `Quick
      test_kernel_jobs_independent;
    Alcotest.test_case "bdd: dec-sized allocation bounded." `Slow
      test_bdd_allocation_bounded;
  ]
