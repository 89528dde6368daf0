(* The flow benchmark.

   Runs the SBM-low flow over one workload's circuits, as a batch
   compiler would: one process, one circuit at a time, closed loop.
   With [--trace 0] it times rounds over the workload with
   observability off and prints the end-to-end metrics; with
   [--trace 1] it alternates untraced and traced rounds, writes the
   last trace (readable by [sbm profile]) and prints the per-layer
   metrics. Every output of every round is verified. The last line of
   stdout is one JSON object with the keys "correct", "attempted",
   "failed" and "metrics"; the exit code is 1 when any run failed.

   Usage:
     perf.exe --workload quick|control|arith|control_j2
              [--seed N] [--seconds S] [--trace 0|1]
              [--circuits A,B] [--trace-out FILE] [--corrupt-output]

   README.md beside this file has the workloads, the seed derivation
   and the metric catalog. *)

module Aig = Sbm_aig.Aig
module Aiger = Sbm_aig.Aiger
module Sim = Sbm_aig.Sim
module Epfl = Sbm_epfl.Epfl
module Flow = Sbm_core.Flow
module Cec = Sbm_cec.Cec
module Lut_map = Sbm_lutmap.Lut_map
module Rng = Sbm_util.Rng
module Obs = Sbm_obs
module Profile = Sbm_report.Profile

let script = Flow.Sbm Flow.Low

(* ---- workloads ---- *)

type workload = { jobs : int; circuits : (string * (unit -> Aig.t)) list }

let epfl ?scale b = (Epfl.name b, fun () -> Epfl.generate ?scale b)

(* Two instances of the generator behind mem_ctrl, small enough that
   each flow takes seconds and large enough that the gradient and
   hetero-kernel passes still take most of it. *)
let control =
  List.map
    (fun seed ->
      ( Printf.sprintf "control-%x" seed,
        fun () -> Epfl.random_control ~seed ~inputs:105 ~outputs:105 ~gates:700 ))
    [ 0x3E3E; 0x3E3F ]

(* div at 6 bits (3/32 of the EPFL width), sqrt at 8 (1/16) and sin at
   6 (1/4): SAT sweeping of div is the largest pass here. *)
let arith =
  [ epfl ~scale:0.09375 Epfl.Div; epfl ~scale:0.0625 Epfl.Sqrt; epfl ~scale:0.25 Epfl.Sin ]

let workloads =
  [
    ("quick", { jobs = 1; circuits = List.map epfl Epfl.quick_set });
    ("control", { jobs = 1; circuits = control });
    ("arith", { jobs = 1; circuits = arith });
    ("control_j2", { jobs = 2; circuits = control });
  ]

(* ---- measurement ---- *)

let now () = Int64.to_float (Obs.monotonic_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The lower median, the ceil(n/2)-th smallest sample. *)
let median = function
  | [] -> 0.0
  | l -> List.nth (List.sort Float.compare l) ((List.length l - 1) / 2)

(* Best of n: the flow and the CEC do the same work in every round, and
   on a shared machine noise only ever adds time, so the fastest round
   is the steadiest estimate of that work (README.md has the measured
   spreads of both estimators). *)
let best = List.fold_left Float.min infinity

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Repeat [f] until [seconds] have elapsed since [start], never fewer
   than [min] times and never starting a repetition that the slowest
   one so far says would overrun. Results in run order. *)
let repeat ~start ~seconds ~min f =
  let rec go acc n slowest =
    if n >= min && now () +. slowest > start +. seconds then List.rev acc
    else
      let r, s = timed f in
      go (r :: acc) (n + 1) (Float.max slowest s)
  in
  go [] 0 0.0

(* ---- one round ---- *)

type verdict = { ok : bool; proven : bool; unknown : bool; cec_s : float }

(* 4096 random patterns from [rng], a SAT-backed CEC, and a binary
   AIGER round trip that must reproduce the structure exactly. *)
let gate rng input output =
  let sim_ok =
    List.for_all
      (fun _ ->
        let words = Sim.random_inputs input rng in
        Sim.output_values input (Sim.simulate input words)
        = Sim.output_values output (Sim.simulate output words))
      (List.init 64 Fun.id)
  in
  let cec, cec_s =
    timed (fun () -> Cec.check ~sim_rounds:64 ~conflict_limit:5000 input output)
  in
  let aiger_ok =
    Aig.fold_hash (Aiger.read_binary (Aiger.write_binary output)) = Aig.fold_hash output
  in
  let cex = match cec with Cec.Counterexample _ -> true | _ -> false in
  { ok = sim_ok && aiger_ok && not cex; proven = cec = Cec.Equivalent;
    unknown = cec = Cec.Unknown; cec_s }

let flip_first_output aig =
  let c = Aig.copy aig in
  Aig.set_output c 0 (Aig.lnot (Aig.output_lit c 0));
  c

type gc_delta = { minor_w : float; major_w : float; minor_c : float; major_c : float }

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    minor_w = g1.minor_words -. g0.minor_words;
    major_w = g1.major_words -. g0.major_words;
    minor_c = float_of_int (g1.minor_collections - g0.minor_collections);
    major_c = float_of_int (g1.major_collections - g0.major_collections);
  }

type run = {
  result : (int64, string) result;  (** the output's [fold_hash], or what the flow raised *)
  secs : float;
  gc : gc_delta;  (** GC activity during the flow *)
  verdict : verdict;
}

let unchecked = { ok = false; proven = false; unknown = false; cec_s = 0.0 }

(* Every circuit once, in the order the seed's stream [rng] draws for
   this round, each output verified as soon as it exists. Returns the
   runs and the outputs, both in workload order. A traced round opens
   one root span per circuit in [trace]; verification stays outside
   it. *)
let round ?trace ~corrupt rng circuits =
  let n = Array.length circuits in
  let results = Array.make n None in
  Array.iter
    (fun i ->
      let name, input = circuits.(i) in
      let obs = Option.map (fun t -> Obs.root ~size:(Aig.size input) t name) trace in
      let g0 = Gc.quick_stat () in
      let out, secs =
        timed (fun () ->
            match Flow.run ?obs script input with
            | o -> Ok o
            | exception e -> Error (Printexc.to_string e))
      in
      let gc = gc_delta g0 (Gc.quick_stat ()) in
      Option.iter (Obs.close ?size:(Result.to_option (Result.map Aig.size out))) obs;
      let verdict =
        match out with
        | Ok o -> gate rng input (if corrupt then flip_first_output o else o)
        | Error _ -> unchecked
      in
      results.(i) <-
        Some ({ result = Result.map Aig.fold_hash out; secs; gc; verdict }, Result.to_option out))
    (shuffle rng n);
  let results = Array.map Option.get results in
  (Array.map fst results, Array.map snd results)

let round_secs r = Array.fold_left (fun acc run -> acc +. run.secs) 0.0 r

(* ---- per circuit ---- *)

type checked = {
  name : string;
  size_in : int;
  output : Aig.t option;  (** the first round's output, if its flow returned *)
  mapping : (Lut_map.mapping * float) option;  (** LUT-6 mapping of it, and its seconds *)
  runs : run list;  (** in run order *)
  failed_runs : int;
}

(* [outputs] are the first round's. A run fails when its flow raised,
   when its output failed the gate, or when its output's structure
   differs from the first round's: every round must reproduce the first
   output exactly, whatever the batch order or tracing. *)
let check circuits outputs rounds =
  Array.to_list
    (Array.mapi
       (fun i (name, input) ->
         let runs = List.map (fun r -> r.(i)) rounds in
         let output = outputs.(i) in
         let reference = Option.map Aig.fold_hash output in
         let failure r =
           match r.result with
           | Error msg -> Some ("flow raised " ^ msg)
           | Ok _ when not r.verdict.ok -> Some "output failed verification"
           | Ok h when Some h <> reference -> Some "output differs from the first round's"
           | Ok _ -> None
         in
         let failures = List.filter_map failure runs in
         List.iter (fun f -> Printf.printf "FAIL %s: %s\n" name f) failures;
         {
           name;
           size_in = Aig.size input;
           output;
           mapping = Option.map (fun o -> timed (fun () -> Lut_map.map ~k:6 o)) output;
           runs;
           failed_runs = List.length failures;
         })
       circuits)

let first_verdict c = match c.runs with r :: _ -> r.verdict | [] -> unchecked
let flow_s c = best (List.map (fun r -> r.secs) c.runs)
let cec_s c = best (List.map (fun r -> r.verdict.cec_s) c.runs)
let luts c = Option.fold ~none:0 ~some:(fun (m, _) -> m.Lut_map.lut_count) c.mapping
let levels c = Option.fold ~none:0 ~some:(fun (m, _) -> m.Lut_map.depth) c.mapping

(* ---- output ---- *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* One JSON line per circuit, ahead of the result line. *)
let print_circuit c =
  let size f = Option.fold ~none:"null" ~some:(fun a -> string_of_int (f a)) c.output in
  let v = first_verdict c in
  let samples f = String.concat "," (List.map (fun r -> num (f r)) c.runs) in
  Printf.printf
    "{\"circuit\":\"%s\",\"size_in\":%d,\"aig_nodes\":%s,\"aig_depth\":%s,\"lut6\":%d,\"lut6_levels\":%d,\"cec\":\"%s\",\"flow_s\":[%s],\"cec_s\":[%s],\"failed_runs\":%d}\n"
    c.name c.size_in (size Aig.size) (size Aig.depth) (luts c) (levels c)
    (if not v.ok then "failed" else if v.proven then "proven" else "unknown")
    (samples (fun r -> r.secs))
    (samples (fun r -> r.verdict.cec_s))
    c.failed_runs

(* Prints the circuit rows, a metric table and the result line; returns
   the number of failed runs. *)
let report checked ~attempted metrics =
  List.iter print_circuit checked;
  let failed = List.fold_left (fun acc c -> acc + c.failed_runs) 0 checked in
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %24s %s\n" n (num v) u) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (failed = 0) attempted failed
    (String.concat ","
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (num v) u)
          metrics));
  failed

let peak_rss_mb () =
  let hwm =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          In_channel.input_all ic |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)))
    with Sys_error _ -> None
  in
  match hwm with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- per-layer metrics of one traced round ---- *)

let passes =
  [ "baseline"; "gradient"; "hetero-kernel"; "mspf"; "collapse-decompose";
    "boolean-difference"; "sat-sweep" ]

(* Seconds come from the span tree aggregated by [Profile], gains from
   the spans' recorded size deltas, counts from the trace's counter
   totals. A pass that saved no node is charged as if it saved one. *)
let layer_metrics trace =
  let agg =
    match Profile.of_json (Obs.to_json trace) with
    | Ok spans -> Profile.aggregate spans
    | Error msg -> failwith ("trace does not parse: " ^ msg)
  in
  let secs field names =
    sum (fun a -> if List.mem a.Profile.agg_name names then field a /. 1000.0 else 0.0) agg
  in
  let total = secs (fun a -> a.Profile.total_ms) in
  let self = secs (fun a -> a.Profile.self_ms) in
  (* Per span name: calls carrying sizes, nodes saved, calls that shrank. *)
  let deltas = Hashtbl.create 32 in
  let rec walk (n : Obs.node) =
    (match (n.size_before, n.size_after) with
    | Some b, Some a ->
      let calls, gain, kept = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt deltas n.name) in
      Hashtbl.replace deltas n.name (calls + 1, gain + b - a, if a < b then kept + 1 else kept)
    | _ -> ());
    List.iter walk n.children
  in
  List.iter walk (Obs.spans trace);
  let delta names =
    List.fold_left
      (fun (c, g, k) name ->
        let c', g', k' = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt deltas name) in
        (c + c', g + g', k + k'))
      (0, 0, 0) names
  in
  let count name = float_of_int (Obs.total trace name) in
  let share parts whole =
    let n l = List.fold_left (fun acc k -> acc + Obs.total trace k) 0 l in
    pct (n parts) (n whole)
  in
  let kernel = [ "hetero-kernel"; "eliminate & kernel"; "eliminate & kernel -h" ] in
  let kernel_calls, _, kernel_kept = delta kernel in
  List.concat_map
    (fun p ->
      let s = total [ p ] in
      let _, gain, _ = delta [ p ] in
      [
        ("flow." ^ p ^ "_s", s, "s");
        ("flow." ^ p ^ "_gain", float_of_int gain, "nodes");
        ("flow." ^ p ^ "_ms_per_node", 1000.0 *. s /. float_of_int (max 1 gain), "ms/node");
      ])
    passes
  @ [
      ("aig.rewrite_s", self [ "rewrite"; "rewrite -z" ], "s");
      ("aig.refactor_s", self [ "refactor"; "refactor -z"; "refactor -h" ], "s");
      ("aig.resub_s", self [ "resub"; "resub -h" ], "s");
      ("aig.balance_s", self [ "balance" ], "s");
      ("gradient.moves_tried", count "gradient.moves_tried", "count");
      ("gradient.moves_gained", count "gradient.moves_gained", "count");
      ("gradient.useful_pct", share [ "gradient.moves_gained" ] [ "gradient.moves_tried" ], "%");
      ("gradient.self_s", self [ "gradient" ], "s");
      ("kernel.s", total kernel, "s");
      ("kernel.trials", count "kernel.trials", "count");
      ("kernel.partitions", count "kernel.partitions", "count");
      ("kernel.kept_pct", pct kernel_kept kernel_calls, "%");
      ("mspf.s", total [ "mspf"; "mspf resub" ], "s");
      ("mspf.candidates_examined", count "mspf.candidates_examined", "count");
      ("diff.pairs_tried", count "diff.pairs_tried", "count");
      ("diff.rewrites", count "diff.rewrites", "count");
      ("bdd.nodes", count "bdd.nodes", "count");
      ("bdd.cache_hit_pct", share [ "bdd.cache_hits" ] [ "bdd.cache_hits"; "bdd.cache_misses" ], "%");
      ("bdd.limit_bails", count "bdd.limit_bails", "count");
      ( "prefilter.survivor_pct",
        share [ "prefilter.survivors" ]
          [ "prefilter.survivors"; "prefilter.rejected_signature"; "prefilter.rejected_const" ],
        "%" );
      ("sat.conflicts", count "sat.conflicts", "count");
      ("sat.propagations", count "sat.propagations", "count");
      ("sweep.sat_calls", count "sweep.sat_calls", "count");
      ("redundancy.sat_calls", count "redundancy.sat_calls", "count");
      ( "sat.useful_pct",
        share [ "sweep.merged"; "redundancy.removed" ] [ "sweep.sat_calls"; "redundancy.sat_calls" ],
        "%" );
    ]

(* ---- modes ---- *)

let generate w = Array.of_list (List.map (fun (name, make) -> (name, make ())) w.circuits)

let warm_pool w =
  Sbm_par.Jobs.set w.jobs;
  ignore (Sbm_par.Pool.global ())

(* End-to-end metrics, untraced. Set-up, building the workload's
   circuits, is repeated five times before every round, so that its
   median spans the same stretch of the run as the rounds do. *)
let untraced ~rng ~seconds ~corrupt w =
  let start = now () in
  let circuits = generate w in
  warm_pool w;
  let first = ref None in
  let sampled =
    repeat ~start ~seconds ~min:2 (fun () ->
        let setups = List.init 5 (fun _ -> snd (timed (fun () -> generate w))) in
        let runs, outputs = round ~corrupt rng circuits in
        if Option.is_none !first then first := Some outputs;
        (setups, runs))
  in
  let setup_s = median (List.concat_map fst sampled) in
  let rounds = List.map snd sampled in
  let checked = check circuits (Option.get !first) rounds in
  let flow_s = sum flow_s checked in
  let outs = List.filter_map (fun c -> c.output) checked in
  let osum f = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 outs) in
  let csum f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 checked) in
  let saved = csum (fun c -> if c.output = None then 0 else c.size_in) -. osum Aig.size in
  let proven = List.length (List.filter (fun c -> (first_verdict c).proven) checked) in
  Printf.printf "%d rounds of %d circuits\n" (List.length rounds) (Array.length circuits);
  report checked
    ~attempted:(Array.length circuits * List.length rounds)
    [
      ("flow_s", flow_s, "s");
      ("setup_s", setup_s, "s");
      ("ms_per_node_saved", 1000.0 *. flow_s /. Float.max 1.0 saved, "ms/node");
      ("aig_nodes", osum Aig.size, "nodes");
      ("aig_depth", osum Aig.depth, "levels");
      ("lut6", csum luts, "LUTs");
      ("lut6_levels", csum levels, "levels");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("cec_s", sum cec_s checked, "s");
      ("cec_proven_pct", pct proven (Array.length circuits), "%");
    ]

(* Per-layer metrics: pairs of one untraced and one traced round. Each
   layer metric is the median over the traced rounds; the GC deltas,
   summed over a round's flows, the median over the untraced ones. *)
let traced ~rng ~seconds ~corrupt ~trace_out w =
  let start = now () in
  let circuits = generate w in
  warm_pool w;
  let first = ref None in
  let pairs =
    repeat ~start ~seconds ~min:1 (fun () ->
        let plain, outputs = round ~corrupt rng circuits in
        if Option.is_none !first then first := Some outputs;
        let trace = Obs.create () in
        (plain, fst (round ~trace ~corrupt rng circuits), trace))
  in
  let plain = List.map (fun (p, _, _) -> p) pairs in
  let traced = List.map (fun (_, t, _) -> t) pairs in
  (* Untraced rounds come first, so traced output is held to the first
     untraced output. *)
  let checked = check circuits (Option.get !first) (plain @ traced) in
  let _, _, last = List.nth pairs (List.length pairs - 1) in
  (match Filename.dirname trace_out with
  | "." -> ()
  | d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755);
  Obs.write last trace_out;
  let layers = List.map (fun (_, _, trace) -> layer_metrics trace) pairs in
  let value name l = Option.get (List.find_map (fun (n, v, _) -> if n = name then Some v else None) l) in
  let med name = median (List.map (value name) layers) in
  let cover =
    List.map2
      (fun l t -> 100.0 *. sum (fun p -> value ("flow." ^ p ^ "_s") l) passes /. round_secs t)
      layers traced
  in
  let untraced_s = best (List.map round_secs plain) in
  let traced_s = best (List.map round_secs traced) in
  let gmed f = median (List.map (fun r -> Array.fold_left (fun acc run -> acc +. f run.gc) 0.0 r) plain) in
  Printf.printf
    "%d round pairs: untraced %.3f s, traced %.3f s; the passes cover %.1f%% of a traced round's flow time\n"
    (List.length pairs) untraced_s traced_s (median cover);
  Printf.printf "trace: %s (view with: sbm profile %s)\n" trace_out trace_out;
  report checked
    ~attempted:(Array.length circuits * 2 * List.length pairs)
    (List.map (fun (n, _, u) -> (n, med n, u)) (List.hd layers)
    @ [
        ("gc.minor_words", gmed (fun g -> g.minor_w), "words");
        ("gc.major_words", gmed (fun g -> g.major_w), "words");
        ("gc.minor_collections", gmed (fun g -> g.minor_c), "count");
        ("gc.major_collections", gmed (fun g -> g.major_c), "count");
        ("lutmap.map_s", sum (fun c -> Option.fold ~none:0.0 ~some:snd c.mapping) checked, "s");
        ( "cec.unknown",
          float_of_int (List.length (List.filter (fun c -> (first_verdict c).unknown) checked)),
          "count" );
        ("obs.trace_overhead_pct", 100.0 *. ((traced_s /. untraced_s) -. 1.0), "%");
      ])

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let only = ref "" and trace_out = ref "" and corrupt = ref false in
  let usage = "perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME quick | control | arith | control_j2");
      ("--seed", Arg.Set_int seed, "N seed of the batch order and the simulation patterns");
      ("--seconds", Arg.Set_float seconds, "S measuring time (never fewer than two rounds)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--circuits", Arg.Set_string only, "A,B run only these circuits of the workload");
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE where --trace 1 writes its trace (default bench/perf/_out/WORKLOAD.trace.json)" );
      ( "--corrupt-output",
        Arg.Set corrupt,
        " flip one output of each optimized circuit before verifying it" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perf: " ^ msg);
    exit 2
  in
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail ("unknown workload '" ^ !workload ^ "'\n" ^ usage)
  in
  let w =
    match !only with
    | "" -> w
    | names ->
      let names = String.split_on_char ',' names in
      List.iter (fun n -> if not (List.mem_assoc n w.circuits) then fail ("no circuit " ^ n)) names;
      { w with circuits = List.filter (fun (n, _) -> List.mem n names) w.circuits }
  in
  let rng = Rng.create !seed in
  let trace_out =
    if !trace_out <> "" then !trace_out
    else Filename.concat "bench/perf/_out" (!workload ^ ".trace.json")
  in
  let failed =
    match !trace with
    | 0 -> untraced ~rng ~seconds:!seconds ~corrupt:!corrupt w
    | 1 -> traced ~rng ~seconds:!seconds ~corrupt:!corrupt ~trace_out w
    | _ -> fail "--trace takes 0 or 1"
  in
  exit (if failed = 0 then 0 else 1)
