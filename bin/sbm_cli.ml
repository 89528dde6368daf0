(* sbm: command-line driver for the Scalable Boolean Methods flow.

   Subcommands:
     generate  — emit an EPFL-style benchmark as AAG
     opt       — optimize an AAG with the baseline or SBM flow
     stats     — print network statistics
     lutmap    — map to LUT-K and report area/depth
     asic      — map to standard cells and report area/timing/power
     cec       — equivalence-check two AAG files
     bench     — run a benchmark subset, check equivalence, write a QoR
                 snapshot
     diff      — compare two QoR snapshots, gate on regressions
     attribute — run a flow and report per-engine node/LUT provenance
     profile   — self/total-time hotspots, flamegraph stacks and Chrome
                 traces from a telemetry trace
     inspect   — render a post-mortem crash dump
     top       — live dashboard over a --status file of a run in flight
     metrics   — registered-metric catalog; --check gates docs drift *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* Malformed or unreadable input ends in one "sbm: cannot read PATH:
   MSG" line with cmdliner's exit 124, like an unwritable output path,
   not in an uncaught exception. *)
let read_aig path =
  match Sbm_aig.Aiger.read_file path with
  | aig -> aig
  | exception (Sbm_aig.Aiger.Error msg | Sys_error msg) ->
    Fmt.epr "sbm: cannot read %s: %s@." path msg;
    Stdlib.exit Cmd.Exit.cli_error

let aig_arg =
  let doc = "Input network in ASCII AIGER (aag) format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.aag" ~doc)

let output_arg =
  let doc = "Write the result to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.aag" ~doc)

(* Range-checked numeric options: an out-of-range value is a usage
   error (exit 124) reported by cmdliner, not an [Invalid_argument]
   raised by the library after the command started. *)
let ranged conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let scale_arg doc =
  let scale = ranged Arg.float ~expected:"a number in (0,1]" (fun s -> s > 0.0 && s <= 1.0) in
  Arg.(value & opt scale 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let at_least n =
  ranged Arg.int ~expected:(Printf.sprintf "an integer >= %d" n) (fun v -> v >= n)

let k_arg doc =
  let k = ranged Arg.int ~expected:"an integer in [2,6]" (fun k -> k >= 2 && k <= 6) in
  Arg.(value & opt k 6 & info [ "k" ] ~docv:"K" ~doc)

(* Output files open before any work starts: an unwritable path ends
   in one "sbm: cannot write WHAT: MSG" line (exit 124), not in an
   uncaught exception after the run. *)
let open_with what f = function
  | None -> Ok None
  | Some path -> (
    try Ok (Some (f path))
    with Sys_error msg -> Error (Printf.sprintf "cannot write %s: %s" what msg))

let open_output what = open_with what open_out

(* A file written only at the end of a run: checked up front without
   being created or truncated, so a failed run leaves no file. *)
let check_writable what path =
  let target = if Sys.file_exists path then path else Filename.dirname path in
  match Unix.access target [ Unix.W_OK ] with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot write %s: %s: %s" what path (Unix.error_message e))

let ( let* ) = Result.bind

let logs_arg =
  let env = Cmd.Env.info "SBM_VERBOSITY" in
  Logs_cli.level ~env ()

let jobs_arg =
  let env =
    Cmd.Env.info "SBM_JOBS" ~doc:"Default worker count (same as $(b,--jobs))."
  in
  let doc =
    "Worker domains for partition-parallel analysis. 1 (the default) runs \
     the exact sequential path; any value produces bit-identical QoR, \
     counters and attribution."
  in
  Arg.(value & opt (some (at_least 1)) None
       & info [ "j"; "jobs" ] ~env ~docv:"N" ~doc)

let setup_jobs jobs = Option.iter Sbm_par.Jobs.set jobs

(* --- record stream / watchdog / crash dumps --- *)

type obs_opts = {
  recorder : bool;
  watchdog : bool;
  watchdog_abort : bool;
  progress : bool;
  deadline : float option;
  status : string option;
  status_interval : float;
}

let obs_opts_term =
  let recorder_arg =
    let env =
      Cmd.Env.info "SBM_FLIGHT_RECORDER"
        ~doc:"Enable the flight recorder (same as $(b,--recorder))."
    in
    let doc =
      "Keep the tail of the run's record stream (pass boundaries, \
       partitions and their bail-outs, gradient rounds, SAT restart \
       storms, watchdog verdicts) in a bounded ring, dumped to \
       $(b,sbm-crash-<pid>.json) on an uncaught exception or fatal signal."
    in
    Arg.(value & flag & info [ "recorder" ] ~env ~doc)
  in
  let watchdog_arg =
    let doc =
      "Arm the anomaly watchdog with default thresholds: pass deadline 120s \
       (see $(b,--deadline)), 8 consecutive BDD bail-out partitions, 8 \
       zero-gain gradient rounds, 4096MB heap. Violations are recorded as \
       verdicts; add $(b,--watchdog-abort) to act on them."
    in
    Arg.(value & flag & info [ "watchdog" ] ~doc)
  in
  let watchdog_abort_arg =
    let doc =
      "Make watchdog violations gracefully abort the offending pass: engines \
       wind down at the next partition/round boundary with their remaining \
       budget marked exhausted. Implies $(b,--watchdog)."
    in
    Arg.(value & flag & info [ "watchdog-abort" ] ~doc)
  in
  let progress_arg =
    let doc =
      "Print a one-line heartbeat to stderr every ~2s: elapsed time, current \
       pass, heap size, events and verdicts so far."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Watchdog pass deadline in seconds (default 120). Implies \
       $(b,--watchdog)."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)
  in
  let status_arg =
    let doc =
      "Mirror the live metrics registry to $(docv) while the run is in \
       flight: the run rewrites the JSONL status file (one sample per \
       line, atomic rename) at most every $(b,--status-interval) ms; \
       attach $(b,sbm top) $(docv) from another terminal to watch it."
    in
    Arg.(value & opt (some string) None & info [ "status" ] ~docv:"FILE" ~doc)
  in
  let status_interval_arg =
    let doc = "Status sampling interval in milliseconds (default 500)." in
    Arg.(
      value & opt float 500. & info [ "status-interval" ] ~docv:"MS" ~doc)
  in
  let mk recorder watchdog watchdog_abort progress deadline status
      status_interval =
    { recorder; watchdog; watchdog_abort; progress; deadline; status;
      status_interval }
  in
  Term.(
    const mk $ recorder_arg $ watchdog_arg $ watchdog_abort_arg $ progress_arg
    $ deadline_arg $ status_arg $ status_interval_arg)

let obs_active o =
  o.recorder || o.watchdog || o.watchdog_abort || o.progress
  || o.deadline <> None || o.status <> None

(* Turn the flags into live machinery: the stream's recorder on,
   watchdog armed, crash-dump signal handlers installed (the status file
   opens in [setup_common]). [trace] is the run's collector trace, so
   dumps carry its counter totals. *)
let setup_obs o trace =
  if obs_active o then begin
    Sbm_obs.Stream.enable_recorder ();
    let thresholds = o.watchdog || o.watchdog_abort || o.deadline <> None in
    let limit v = if thresholds then Some v else None in
    if thresholds || o.progress then
      Sbm_obs.Watchdog.arm
        {
          Sbm_obs.Watchdog.pass_deadline_ms =
            limit (1000.0 *. Option.value ~default:120.0 o.deadline);
          max_bail_streak = limit 8;
          stall_rounds = limit 8;
          max_heap_mb = limit 4096.0;
          heartbeat_ms = (if o.progress then Some 2000.0 else None);
          action = Sbm_obs.Watchdog.(if o.watchdog_abort then Abort else Note);
        };
    let dir =
      Option.value ~default:"." (Sys.getenv_opt "SBM_CRASH_DUMP_DIR")
    in
    Sbm_obs.Postmortem.install ~dir ?trace ()
  end

(* cmdliner's evaluator catches exceptions before any at_exit-style
   hook could see the live recorder state, so the flow call itself is
   the dump point for crashes (signals are handled by [install]). *)
let guarded o f =
  if not (obs_active o) then f ()
  else
    try f ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Sbm_obs.Postmortem.report_dump ~reason:(Printexc.to_string e) ();
      Printexc.raise_with_backtrace e bt

(* --- common engine options: jobs + observability + prefilter ---

   One reusable option group shared by every command that runs a flow
   (opt, bench, attribute), so the engine-facing surface is uniform:
   --jobs, --recorder/--watchdog/--watchdog-abort/--progress/--deadline,
   --no-prefilter. *)

type common_opts = {
  jobs : int option;
  obs : obs_opts;
  prefilter : bool;
  fingerprint : string option;
}

let common_opts_term =
  let no_prefilter_arg =
    let doc =
      "Disable the simulation-guided candidate prefilter. QoR is \
       bit-identical either way (the filter is accept-preserving); \
       disabling it only restores the engines' full candidate workloads \
       and drops the $(b,prefilter.*) counters."
    in
    Arg.(value & flag & info [ "no-prefilter" ] ~doc)
  in
  let fingerprint_arg =
    let doc =
      "Write the determinism audit trail to $(docv) as JSON lines: the run's \
       pass-end and partition-merge records, each with a chained state \
       fingerprint (structure hash, counter digest, prefilter bank, seeds). \
       Two runs' trails are aligned with $(b,sbm audit) to localize the \
       first diverging boundary. Fingerprinting never changes QoR or \
       counters."
    in
    Arg.(value & opt (some string) None & info [ "fingerprint" ] ~docv:"FILE" ~doc)
  in
  let mk jobs obs no_prefilter fingerprint =
    { jobs; obs; prefilter = not no_prefilter; fingerprint }
  in
  Term.(const mk $ jobs_arg $ obs_opts_term $ no_prefilter_arg $ fingerprint_arg)

(* [trail] keeps the audit trail on without a file (`sbm bench`);
   elsewhere it costs one structural hash per boundary, so it is opt-in
   via the flag. The trail's file is opened once, here. *)
let setup_common ?(trail = false) ?trace c =
  setup_jobs c.jobs;
  setup_obs c.obs trace;
  let* _ =
    match c.fingerprint with
    | None when trail -> Ok (Some (Sbm_obs.Stream.enable_trail ()))
    | path ->
      open_with "fingerprint trail"
        (fun p -> Sbm_obs.Stream.enable_trail ~path:p ())
        path
  in
  let* _ =
    open_with "status file"
      (Sbm_obs.Status.start ~interval_ms:c.obs.status_interval)
      c.obs.status
  in
  Ok ()

(* The one flow run of opt, bench and attribute: [flow] on [aig] as the
   root span [name] of [trace] (untraced without one), guarded so a
   crash leaves a dump. Returns the output and the flow's wall
   seconds. *)
let run_flow ?trace ?explain c ~name flow aig =
  let module Aig = Sbm_aig.Aig in
  let root =
    match trace with
    | None -> Sbm_obs.null
    | Some t -> Sbm_obs.root ~size:(Aig.size aig) ~depth:(Aig.depth aig) t name
  in
  let t0 = Unix.gettimeofday () in
  let optimized =
    guarded c.obs (fun () ->
        Sbm_core.Flow.run ~obs:root ?explain ~prefilter:c.prefilter flow aig)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Sbm_obs.close ~size:(Aig.size optimized) ~depth:(Aig.depth optimized) root;
  (optimized, dt)

(* --- stats --- *)

let stats_cmd =
  let run path () =
    let aig = read_aig path in
    Fmt.pr "%a@." Sbm_aig.Aig.pp_stats aig
  in
  let term = Term.(const run $ aig_arg $ const ()) in
  Cmd.v (Cmd.info "stats" ~doc:"Print size, depth and I/O counts of a network") term

(* --- generate --- *)

let generate_cmd =
  let bench_arg =
    let doc =
      "Benchmark name: one of "
      ^ String.concat ", " (List.map Sbm_epfl.Epfl.name Sbm_epfl.Epfl.all)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let scale_arg = scale_arg "Width scale in (0,1]: shrinks arithmetic operands." in
  let seed_arg =
    let doc =
      "RNG seed for the structured-random control benchmarks (cavlc, ctrl, \
       i2c, mem_ctrl, router); functionally determined benchmarks ignore it. \
       Default: the benchmark's built-in seed."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let run name scale seed output =
    match Sbm_epfl.Epfl.of_name name with
    | None -> `Error (false, "unknown benchmark: " ^ name)
    | Some b -> (
      match open_output "output AIG" output with
      | Error msg -> `Error (false, msg)
      | Ok oc ->
        let aig = Sbm_epfl.Epfl.generate ~scale ?seed b in
        let text = Sbm_aig.Aiger.write aig in
        (match (oc, output) with
        | Some oc, Some path ->
          output_string oc text;
          close_out oc;
          Fmt.pr "%s: %a -> %s@." name Sbm_aig.Aig.pp_stats aig path
        | _ -> print_string text);
        `Ok ())
  in
  let term =
    Term.(ret (const run $ bench_arg $ scale_arg $ seed_arg $ output_arg))
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate an EPFL-style benchmark") term

(* The [--flow] option of [opt], [bench] and [attribute]: typed
   dispatch, so the enum converter rejects unknown flows with a
   cmdliner error listing the alternatives. *)
let flow_arg ~verb default =
  let flows =
    List.map (fun s -> (Sbm_core.Flow.to_string s, s)) Sbm_core.Flow.all
  in
  let doc =
    "Flow to " ^ verb ^ ": " ^ String.concat " | " (List.map fst flows) ^ "."
  in
  Arg.(value & opt (enum flows) default & info [ "flow" ] ~docv:"FLOW" ~doc)

(* --- opt --- *)

let opt_cmd =
  let flow_arg = flow_arg ~verb:"run" (Sbm_core.Flow.Sbm Sbm_core.Flow.High) in
  let verify_arg =
    let doc = "Check combinational equivalence of the result." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let trace_arg =
    let doc = "Print a per-pass telemetry tree (wall time, size/depth deltas, engine counters)." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let report_arg =
    let doc =
      "Write the telemetry trace to $(docv) (format by extension: .json, .jsonl, .csv)."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let explain_arg =
    let doc =
      "Stream the gradient engine's per-move decisions to $(docv) as JSON \
       lines: one record per attempted move with the move name, cost, gain, \
       waterfall accept/reject verdict, remaining budget and the running \
       gradient."
    in
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"FILE" ~doc)
  in
  let run level common path flow verify trace report explain output =
    setup_logs level;
    (* Recorder/watchdog runs always collect: a crash dump without the
       span stack and counters would be useless. *)
    let collecting = trace || report <> None || obs_active common.obs in
    let collector = if collecting then Some (Sbm_obs.create ()) else None in
    let opened =
      (* Read before the outputs open: [-o] may name the input. *)
      let aig = read_aig path in
      let* () = setup_common ?trace:collector common in
      let* explain_oc = open_output "gradient explain stream" explain in
      (* The report is rendered by path at the end; opening it here
         only checks that it can be written. *)
      let* report_oc = open_output "telemetry report" report in
      Option.iter close_out report_oc;
      let* output_oc = open_output "output AIG" output in
      Ok (aig, explain_oc, output_oc)
    in
    match opened with
    | Error msg -> `Error (false, msg)
    | Ok (aig, explain_oc, output_oc) ->
      let before = Sbm_aig.Aig.size aig in
      let explain_count = ref 0 in
      let explain_cb =
        Option.map
          (fun oc (e : Sbm_core.Gradient.event) ->
            incr explain_count;
            output_string oc (Sbm_core.Gradient.event_to_json e);
            output_char oc '\n')
          explain_oc
      in
      let optimized, dt =
        run_flow ?trace:collector ?explain:explain_cb common
          ~name:(Sbm_core.Flow.to_string flow) flow aig
      in
      Option.iter close_out explain_oc;
      Option.iter
        (fun file ->
          Fmt.pr "gradient explain stream (%d records) written to %s@."
            !explain_count file)
        explain;
      (* The final status sample before the trace is written, so the
         report embeds the full live-telemetry history. *)
      Sbm_obs.Status.stop ();
      Fmt.pr "size: %d -> %d (%.1f%%), depth %d, %.2fs@." before
        (Sbm_aig.Aig.size optimized)
        (100.0
        *. float_of_int (before - Sbm_aig.Aig.size optimized)
        /. float_of_int (max 1 before))
        (Sbm_aig.Aig.depth optimized) dt;
      let reported =
        match (collector, report) with
        | Some t, file -> (
          if trace then Fmt.pr "%a@." Sbm_obs.pp t;
          match Option.iter (Sbm_obs.write t) file with
          | () ->
            Option.iter (Fmt.pr "telemetry written to %s@.") file;
            `Ok ()
          | exception Sys_error msg ->
            `Error (false, "cannot write telemetry report: " ^ msg))
        | None, _ -> `Ok ()
      in
      let verified =
        if not verify then `Ok ()
        else
          match Sbm_cec.Cec.check aig optimized with
          | Sbm_cec.Cec.Equivalent ->
            Fmt.pr "equivalence: proven@.";
            `Ok ()
          | Sbm_cec.Cec.Counterexample _ ->
            Fmt.pr "equivalence: FAILED@.";
            `Error (false, "networks differ")
          | Sbm_cec.Cec.Unknown ->
            Fmt.pr "equivalence: unknown (budget)@.";
            `Ok ()
      in
      Option.iter
        (fun oc ->
          output_string oc (Sbm_aig.Aiger.write optimized);
          close_out oc)
        output_oc;
      if reported = `Ok () then verified else reported
  in
  let term =
    Term.(
      ret
        (const run $ logs_arg $ common_opts_term $ aig_arg $ flow_arg
        $ verify_arg $ trace_arg $ report_arg $ explain_arg $ output_arg))
  in
  Cmd.v (Cmd.info "opt" ~doc:"Optimize a network") term

(* --- lutmap --- *)

let lutmap_cmd =
  let k_arg = k_arg "LUT input count, 2 to 6." in
  let run path k =
    let aig = read_aig path in
    let mapping = Sbm_lutmap.Lut_map.map ~k aig in
    Fmt.pr "LUT-%d count: %d, levels: %d@." k mapping.Sbm_lutmap.Lut_map.lut_count
      mapping.Sbm_lutmap.Lut_map.depth
  in
  let term = Term.(const run $ aig_arg $ k_arg) in
  Cmd.v (Cmd.info "lutmap" ~doc:"Map to K-input LUTs (area-oriented)") term

(* --- asic --- *)

let asic_cmd =
  let clock_arg =
    let doc = "Clock period for slack analysis (default: critical path)." in
    Arg.(value & opt (some float) None & info [ "clock" ] ~docv:"T" ~doc)
  in
  let run path clock =
    let aig = read_aig path in
    let netlist = Sbm_asic.Mapper.map aig in
    let report = Sbm_asic.Sta.analyze ?clock netlist in
    let power = Sbm_asic.Power.dynamic netlist in
    Fmt.pr "cells: %d, area: %.1f@." (Array.length netlist.Sbm_asic.Netlist.gates)
      (Sbm_asic.Netlist.area netlist);
    Fmt.pr "critical path: %.3f, wns: %.3f, tns: %.3f@."
      report.Sbm_asic.Sta.arrival_max report.Sbm_asic.Sta.wns report.Sbm_asic.Sta.tns;
    Fmt.pr "dynamic power (normalized): %.2f@." power
  in
  let term = Term.(const run $ aig_arg $ clock_arg) in
  Cmd.v (Cmd.info "asic" ~doc:"Map to standard cells; report area/timing/power") term

(* --- cec --- *)

let cec_cmd =
  let other_arg =
    let doc = "Second network." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"OTHER.aag" ~doc)
  in
  let run path other =
    let a = read_aig path in
    let b = read_aig other in
    match Sbm_cec.Cec.check a b with
    | Sbm_cec.Cec.Equivalent ->
      Fmt.pr "equivalent@.";
      `Ok ()
    | Sbm_cec.Cec.Counterexample cex ->
      let bits =
        String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list cex))
      in
      Fmt.pr "NOT equivalent (counterexample: %s)@." bits;
      `Error (false, "networks differ")
    | Sbm_cec.Cec.Unknown ->
      Fmt.pr "unknown (resource limit)@.";
      `Error (false, "inconclusive")
  in
  let term = Term.(ret (const run $ aig_arg $ other_arg)) in
  Cmd.v (Cmd.info "cec" ~doc:"Combinational equivalence check") term

(* --- bench --- *)

let bench_cmd =
  let benches_arg =
    let doc =
      "Benchmarks to run (default: the quick subset "
      ^ String.concat ", " (List.map Sbm_epfl.Epfl.name Sbm_epfl.Epfl.quick_set)
      ^ ")."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"BENCH" ~doc)
  in
  let flow_arg = flow_arg ~verb:"benchmark" (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) in
  let seed_arg =
    let doc =
      "RNG seed for the structured-random control benchmarks, recorded in \
       the snapshot so a diff against it regenerates the same instances. \
       0 (default) keeps each benchmark's built-in seed."
    in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let scale_arg = scale_arg "Width scale in (0,1] for arithmetic benchmarks." in
  let suite_arg =
    let doc =
      "Run a named benchmark suite: $(b,quick) (the CI gate subset), \
       $(b,table1) / $(b,table2) (the paper's EPFL table sets), or \
       $(b,full) (all 20 benchmarks). Each benchmark runs at its \
       harness default width scale multiplied by $(b,--scale), so the \
       giant arithmetic cores stay tractable; the snapshot records the \
       resulting input node count per entry. Mutually exclusive with \
       positional benchmark names."
    in
    let suites =
      List.map
        (fun (name, set) -> (name, (name, set)))
        Sbm_epfl.Epfl.
          [ ("quick", quick_set); ("table1", table1_set);
            ("table2", table2_set); ("full", all) ]
    in
    Arg.(value & opt (some (enum suites)) None
         & info [ "suite" ] ~docv:"SUITE" ~doc)
  in
  let label_arg =
    let doc = "Free-form provenance label stored in the snapshot." in
    Arg.(value & opt string "" & info [ "label" ] ~docv:"TEXT" ~doc)
  in
  let out_arg =
    let doc = "Snapshot output path." in
    Arg.(value & opt string "BENCH_sbm.json" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let hist_arg =
    let doc = "Print the per-span wall-time histogram of every run." in
    Arg.(value & flag & info [ "histograms" ] ~doc)
  in
  let repeat_arg =
    let doc =
      "Run each benchmark $(docv) times: the snapshot records the median \
       wall time (robust against machine noise) and, when $(docv) > 1, the \
       minimum as the $(b,bench.wall_ms_min) counter. QoR is checked \
       identical across repeats."
    in
    Arg.(value & opt (at_least 1) 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let ledger_arg =
    let doc =
      "Append one JSONL run record (the full snapshot keyed by timestamp, \
       commit from $(b,SBM_COMMIT), flow and job count) to $(docv); render \
       trends from it with $(b,sbm history)."
    in
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)
  in
  let run level common names suite flow seed scale label out hist repeat ledger =
    setup_logs level;
    let setup =
      let* () = setup_common ~trail:true common in
      let* () = check_writable "snapshot" out in
      Option.fold ~none:(Ok ()) ~some:(check_writable "ledger") ledger
    in
    let module Epfl = Sbm_epfl.Epfl in
    let module Aig = Sbm_aig.Aig in
    let resolve n =
      match Epfl.of_name n with
      | Some b -> `Ok b
      | None -> `Bad n
    in
    let resolved = List.map resolve names in
    match
      (setup, List.filter_map (function `Bad n -> Some n | `Ok _ -> None) resolved)
    with
    | Error msg, _ -> `Error (false, msg)
    | _, bad :: _ -> `Error (false, "unknown benchmark: " ^ bad)
    | _, [] when suite <> None && names <> [] ->
      `Error (false, "--suite and positional benchmark names are mutually \
                      exclusive")
    | Ok (), [] ->
      (* Named suites run each benchmark at its harness default scale
         (times --scale); explicit names and the bare default keep the
         uniform --scale, so the committed quick-set baseline is
         byte-for-byte unaffected by suite machinery. *)
      let benches, eff_scale =
        match suite with
        | Some (_, set) -> (set, fun b -> scale *. Epfl.default_scale b)
        | None ->
          let set =
            match
              List.filter_map (function `Ok b -> Some b | `Bad _ -> None)
                resolved
            with
            | [] -> Epfl.quick_set
            | l -> l
          in
          (set, fun _ -> scale)
      in
      (* Every snapshot carries the per-pass ledger, a view of each
         run's trace. The LUT probe closes the QoR loop per pass (the
         mapper library sits above sbm_core). *)
      Sbm_core.Flow.ledger_qor_probe :=
        Some
          (fun aig ->
            let m = Sbm_lutmap.Lut_map.map ~k:6 aig in
            (m.Sbm_lutmap.Lut_map.lut_count, m.Sbm_lutmap.Lut_map.depth));
      (* A flow whose output differs from its input ends the command. *)
      let exception Not_equivalent of string in
      let entry b =
        let bench = Epfl.name b in
        let seed_opt = if seed = 0 then None else Some seed in
        let run_once i =
          let aig = Epfl.generate ~scale:(eff_scale b) ?seed:seed_opt b in
          let trace = Sbm_obs.create () in
          (* Point a pending crash dump at the benchmark being run. *)
          if obs_active common.obs then Sbm_obs.Postmortem.configure ~trace ();
          let optimized, dt = run_flow ~trace common ~name:bench flow aig in
          let wall_ms = 1000.0 *. dt in
          (* Once per benchmark, outside [wall_ms], at the budget the
             other harnesses use. CEC bumps no registry counter, so
             counters, ledger rows and the trail are unaffected. *)
          let cec =
            if i > 0 then None
            else
              match
                Sbm_cec.Cec.check ~sim_rounds:64 ~conflict_limit:5_000 aig
                  optimized
              with
              | Sbm_cec.Cec.Equivalent -> Some "proven"
              | Sbm_cec.Cec.Unknown -> Some "unknown"
              | Sbm_cec.Cec.Counterexample _ -> raise (Not_equivalent bench)
          in
          let mapping = Sbm_lutmap.Lut_map.map ~k:6 optimized in
          let qor =
            {
              Sbm_obs.Snapshot.size = Aig.size optimized;
              depth = Aig.depth optimized;
              luts = mapping.Sbm_lutmap.Lut_map.lut_count;
              levels = mapping.Sbm_lutmap.Lut_map.depth;
            }
          in
          (Aig.size aig, qor, cec, wall_ms, trace, Sbm_obs.ledger trace)
        in
        let runs = List.init repeat run_once in
        let size_in, qor, cec, _, trace, passes = List.hd runs in
        List.iter
          (fun (_, q, _, _, _, _) ->
            if q <> qor then
              failwith (bench ^ ": QoR differs across repeated runs"))
          runs;
        let walls =
          List.sort Float.compare (List.map (fun (_, _, _, w, _, _) -> w) runs)
        in
        (* Lower median: robust against container noise, deterministic
           for even repeat counts. *)
        let wall_ms = List.nth walls ((List.length walls - 1) / 2) in
        Fmt.pr "%-11s size %6d -> %6d, depth %4d, LUT-6 %6d / %3d, %7.1fms%s@."
          bench size_in qor.Sbm_obs.Snapshot.size qor.Sbm_obs.Snapshot.depth
          qor.Sbm_obs.Snapshot.luts qor.Sbm_obs.Snapshot.levels wall_ms
          (if repeat > 1 then
             Fmt.str " (median of %d, min %.1fms)" repeat (List.hd walls)
           else "");
        if cec = Some "unknown" then
          Fmt.pr "            cec: unknown at the 5000-conflict budget@.";
        if hist then Fmt.pr "%a" Sbm_obs.pp_histograms trace;
        let counters = Sbm_obs.totals trace in
        (* Per-benchmark prefilter summary (absent with --no-prefilter):
           survivor ratio over all filtered candidates, plus the
           rejection and refinement tallies — also the source of CI's
           prefilter-stats artifact. *)
        (match List.assoc_opt "prefilter.survivors" counters with
        | Some survivors ->
          let get k = Option.value ~default:0 (List.assoc_opt k counters) in
          let rej_sig = get "prefilter.rejected_signature" in
          let rej_const = get "prefilter.rejected_const" in
          let total = survivors + rej_sig + rej_const in
          Fmt.pr
            "            prefilter: %d/%d candidates survived (%.1f%%), %d \
             sig-rejected, %d const-rejected, %d cex refinements@."
            survivors total
            (100.0 *. float_of_int survivors /. float_of_int (max 1 total))
            rej_sig rej_const
            (get "prefilter.cex_refinements")
        | None -> ());
        let counters =
          if repeat > 1 then begin
            let wall_min = int_of_float (Float.round (List.hd walls)) in
            Sbm_obs.Metrics.set Sbm_obs.Metrics.bench_wall_ms_min wall_min;
            counters @ [ ("bench.wall_ms_min", wall_min) ]
          end
          else counters
        in
        { Sbm_obs.Snapshot.bench; size_before = size_in; qor; cec; wall_ms;
          counters; passes }
      in
      let label =
        if label <> "" then label
        else
          match suite with
          | Some (sname, _) ->
            Fmt.str "flow=%s suite=%s scale=%g"
              (Sbm_core.Flow.to_string flow) sname scale
          | None ->
            Fmt.str "flow=%s scale=%g" (Sbm_core.Flow.to_string flow) scale
      in
      let entries =
        match List.map entry benches with
        | entries -> Ok entries
        | exception Not_equivalent bench ->
          Error (bench ^ ": flow output is not equivalent to its input")
      in
      Sbm_obs.Status.stop ();
      Sbm_obs.Stream.close ();
      match entries with
      | Error msg -> `Error (false, msg)
      | Ok entries -> (
        let snapshot = Sbm_obs.Snapshot.make ~label ~seed entries in
        match Sbm_obs.Snapshot.write snapshot out with
        | () -> (
          Fmt.pr "snapshot (%d benchmarks) written to %s@."
            (List.length benches) out;
          match ledger with
          | None -> `Ok ()
          | Some path -> (
            let record =
              {
                Sbm_report.History.t = Unix.time ();
                commit =
                  Option.value ~default:"" (Sys.getenv_opt "SBM_COMMIT");
                flow = Sbm_core.Flow.to_string flow;
                jobs = Sbm_par.Jobs.get ();
                snapshot;
              }
            in
            match Sbm_report.History.append_run ~path record with
            | Ok () ->
              Fmt.pr "ledger record appended to %s@." path;
              `Ok ()
            | Error msg -> `Error (false, "cannot append ledger: " ^ msg)))
        | exception Sys_error msg ->
          `Error (false, "cannot write snapshot: " ^ msg))
  in
  let term =
    Term.(
      ret
        (const run $ logs_arg $ common_opts_term $ benches_arg $ suite_arg
       $ flow_arg $ seed_arg $ scale_arg $ label_arg $ out_arg $ hist_arg
       $ repeat_arg $ ledger_arg))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run a benchmark subset, check each output's equivalence with its \
          input and write a versioned QoR snapshot")
    term

(* --- diff --- *)

let diff_cmd =
  let old_arg =
    let doc = "Baseline snapshot (written by $(b,sbm bench))." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json" ~doc)
  in
  let new_arg =
    let doc = "New snapshot to compare against the baseline." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json" ~doc)
  in
  let threshold_arg =
    let doc =
      "QoR tolerance in percent: a size/depth/LUT/level increase beyond \
       $(docv) is a regression."
    in
    Arg.(value & opt float Sbm_report.Report.default_tolerance.Sbm_report.Report.qor_pct
         & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let time_threshold_arg =
    let doc = "Wall-time tolerance in percent." in
    Arg.(value & opt float Sbm_report.Report.default_tolerance.Sbm_report.Report.time_pct
         & info [ "time-threshold" ] ~docv:"PCT" ~doc)
  in
  let ignore_time_arg =
    let doc =
      "Drop wall time from the comparison entirely — no time verdicts, no \
       speedup column — so QoR-only gating output is stable across \
       machines."
    in
    Arg.(value & flag & info [ "ignore-time" ] ~doc)
  in
  let per_pass_arg =
    let doc =
      "Align the per-pass ledger rows of the two snapshots and classify \
       each pass, localizing a QoR or wall-time delta to the pass that \
       introduced it. A pass-sequence mismatch is a regression."
    in
    Arg.(value & flag & info [ "per-pass" ] ~doc)
  in
  let counters_arg =
    let doc = "Also print changed engine counters per benchmark." in
    Arg.(value & flag & info [ "counters" ] ~doc)
  in
  let json_arg =
    let doc =
      "Print the diff as a JSON document (verdict per benchmark and metric) \
       instead of the human table. The exit-code contract is unchanged."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run old_path new_path threshold time_threshold ignore_time per_pass
      counters json =
    let load path =
      match Sbm_obs.Snapshot.load path with
      | Ok s -> `Ok s
      | Error msg -> `Bad msg
    in
    match (load old_path, load new_path) with
    | `Bad msg, _ | _, `Bad msg -> `Error (false, msg)
    | `Ok old_snap, `Ok new_snap ->
      let tolerance =
        { Sbm_report.Report.qor_pct = threshold; time_pct = time_threshold }
      in
      if per_pass then begin
        let d =
          Sbm_report.Report.diff_passes ~tolerance ~ignore_time old_snap
            new_snap
        in
        if json then print_endline (Sbm_report.Report.passes_to_json d)
        else begin
          Fmt.pr "old: %s@.new: %s@." old_snap.Sbm_obs.Snapshot.label
            new_snap.Sbm_obs.Snapshot.label;
          Fmt.pr "%a" Sbm_report.Report.pp_passes d
        end;
        let code = Sbm_report.Report.passes_exit_code d in
        if code <> 0 then Stdlib.exit code;
        `Ok ()
      end
      else begin
        let d =
          Sbm_report.Report.diff ~tolerance ~ignore_time old_snap new_snap
        in
        if json then print_endline (Sbm_report.Report.to_json d)
        else begin
          Fmt.pr "old: %s@.new: %s@." old_snap.Sbm_obs.Snapshot.label
            new_snap.Sbm_obs.Snapshot.label;
          Fmt.pr "%a" Sbm_report.Report.pp d;
          if counters then Fmt.pr "%a" Sbm_report.Report.pp_counters d
        end;
        let code = Sbm_report.Report.exit_code d in
        if code <> 0 then Stdlib.exit code;
        `Ok ()
      end
  in
  let term =
    Term.(
      ret
        (const run $ old_arg $ new_arg $ threshold_arg $ time_threshold_arg
       $ ignore_time_arg $ per_pass_arg $ counters_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two QoR snapshots; exit 1 when a metric regresses past the \
          threshold")
    term

(* --- attribute --- *)

let attribute_cmd =
  let input_arg =
    let doc =
      "Benchmark name (one of "
      ^ String.concat ", " (List.map Sbm_epfl.Epfl.name Sbm_epfl.Epfl.all)
      ^ ") or a path to an ASCII AIGER (.aag) file."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT" ~doc)
  in
  let flow_arg = flow_arg ~verb:"attribute" (Sbm_core.Flow.Sbm Sbm_core.Flow.Low) in
  let scale_arg = scale_arg "Width scale in (0,1] for generated arithmetic benchmarks." in
  let seed_arg =
    let doc = "RNG seed for generated structured-random benchmarks." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let k_arg = k_arg "LUT input count (2 to 6) for the mapped-netlist shares." in
  let json_arg =
    let doc = "Print the attribution as JSON instead of the human tables." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run level common input flow scale seed k json =
    setup_logs level;
    (* A crash dump carries the counters of the run's collector. *)
    let collector =
      if obs_active common.obs then Some (Sbm_obs.create ()) else None
    in
    match setup_common ?trace:collector common with
    | Error msg -> `Error (false, msg)
    | Ok () -> (
      let aig =
        match Sbm_epfl.Epfl.of_name input with
        | Some b -> `Ok (Sbm_epfl.Epfl.generate ~scale ?seed b)
        | None ->
          if Sys.file_exists input then `Ok (read_aig input)
          else `Bad ("unknown benchmark or missing file: " ^ input)
      in
      match aig with
      | `Bad msg -> `Error (false, msg)
      | `Ok aig ->
        let optimized, _ =
          run_flow ?trace:collector common
            ~name:(Sbm_core.Flow.to_string flow) flow aig
        in
        let mapping = Sbm_lutmap.Lut_map.map ~k optimized in
        let att = Sbm_report.Attribution.compute optimized mapping in
        if json then print_endline (Sbm_report.Attribution.to_json att)
        else begin
          Fmt.pr "%s, flow %s: size %d -> %d@.@." input
            (Sbm_core.Flow.to_string flow) (Sbm_aig.Aig.size aig)
            (Sbm_aig.Aig.size optimized);
          Fmt.pr "%a" Sbm_report.Attribution.pp att
        end;
        Sbm_obs.Status.stop ();
        `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ logs_arg $ common_opts_term $ input_arg $ flow_arg
       $ scale_arg $ seed_arg $ k_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "attribute"
       ~doc:
         "Run a flow and report which engine's nodes survive to the final \
          AIG and the mapped netlist")
    term

(* --- profile --- *)

let profile_cmd =
  let trace_arg =
    let doc =
      "Telemetry trace (written by $(b,sbm opt --report FILE.json)), or \
       $(b,-) for stdin."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.json" ~doc)
  in
  let top_arg =
    let doc = "Number of hotspot rows to print." in
    Arg.(value & opt (at_least 1) 20 & info [ "top" ] ~docv:"N" ~doc)
  in
  let collapsed_arg =
    let doc =
      "Also write collapsed stacks to $(docv) — one \"stack;frames WEIGHT\" \
       line per stack, weight in self-time microseconds — consumable \
       directly by flamegraph.pl."
    in
    Arg.(value & opt (some string) None & info [ "collapsed" ] ~docv:"FILE" ~doc)
  in
  let chrome_arg =
    let doc =
      "Also export the trace to $(docv) in Chrome trace-event format, \
       loadable in ui.perfetto.dev or chrome://tracing: spans as duration \
       events, live-telemetry samples as counter series, flight-recorder \
       events and watchdog verdicts as instants."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  (* Exit 2 on unreadable input, matching [sbm inspect]: distinguishable
     from cmdliner's 124 (usage) and the flow's QoR gates. *)
  let run path top collapsed chrome =
    let label = if path = "-" then "stdin" else path in
    match Sbm_obs.Json.read_source path with
    | Error msg ->
      Fmt.epr "sbm: %s@." msg;
      Stdlib.exit 2
    | Ok src -> (
      let fail msg =
        Fmt.epr "sbm: %s: %s@." label msg;
        Stdlib.exit 2
      in
      (* Parsed once: the hotspots and the Chrome export read the same
         document. *)
      let doc =
        match Sbm_report.Json.parse src with
        | exception Sbm_report.Json.Bad msg -> fail ("malformed JSON: " ^ msg)
        | doc -> doc
      in
      match Sbm_obs.of_json_value doc with
      | Error msg -> fail msg
      | Ok spans ->
        Fmt.pr "%a" (Sbm_report.Profile.pp_hotspots ~top) spans;
        (match collapsed with
        | None -> ()
        | Some file -> (
          match Sbm_report.Profile.write_collapsed spans file with
          | () -> Fmt.pr "collapsed stacks written to %s@." file
          | exception Sys_error msg ->
            Fmt.epr "sbm: cannot write collapsed stacks: %s@." msg;
            Stdlib.exit 2));
        (match chrome with
        | None -> ()
        | Some file -> (
          match Sbm_report.Chrome.of_trace doc spans with
          | Error msg -> fail msg
          | Ok chrome -> (
            match
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_string oc chrome)
            with
            | () -> Fmt.pr "Chrome trace written to %s@." file
            | exception Sys_error msg ->
              Fmt.epr "sbm: cannot write Chrome trace: %s@." msg;
              Stdlib.exit 2))))
  in
  let term =
    Term.(const run $ trace_arg $ top_arg $ collapsed_arg $ chrome_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Attribute wall time: self/total-time hotspots, flamegraph \
          collapsed stacks and Chrome traces from a telemetry trace")
    term

(* --- inspect --- *)

let inspect_cmd =
  let dump_arg =
    let doc =
      "Post-mortem dump ($(b,sbm-crash-<pid>.json), written on an uncaught \
       exception or fatal signal during a $(b,--recorder) run), or $(b,-) \
       for stdin."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DUMP.json" ~doc)
  in
  let last_arg =
    let doc = "Timeline events to show (most recent last)." in
    Arg.(value & opt (at_least 0) 20 & info [ "last" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc =
      "Re-emit the dump as canonical JSON instead of the human report."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let abs_arg =
    let doc =
      "Print absolute monotonic-clock timestamps in nanoseconds instead of \
       deltas from run start (falls back to deltas for dumps that predate \
       the absolute clock)."
    in
    Arg.(value & flag & info [ "abs" ] ~doc)
  in
  let run path last json abs =
    match Sbm_obs.Postmortem.load path with
    | Error msg ->
      Fmt.epr "sbm: %s@." msg;
      Stdlib.exit 2
    | Ok dump ->
      if json then print_endline (Sbm_obs.Postmortem.to_json dump)
      else Fmt.pr "%a" (Sbm_report.Inspect.pp ~last ~abs) dump
  in
  let term = Term.(const run $ dump_arg $ last_arg $ json_arg $ abs_arg) in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Render a post-mortem crash dump: what the run was doing, watchdog \
          verdicts, and the tail of the event timeline")
    term

(* --- top --- *)

let top_cmd =
  let status_arg =
    let doc =
      "Status file written by a run launched with $(b,--status) $(docv). \
       Need not exist yet: without $(b,--once) the dashboard waits for it."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STATUS.jsonl" ~doc)
  in
  let refresh_arg =
    let doc = "Refresh interval in milliseconds." in
    Arg.(value & opt float 500. & info [ "refresh" ] ~docv:"MS" ~doc)
  in
  let once_arg =
    let doc =
      "Render the latest sample once and exit (exit 2 when the status file \
       is missing or empty)."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let run path refresh once =
    Stdlib.exit (Sbm_report.Live.run ~refresh_ms:refresh ~once path)
  in
  let term = Term.(const run $ status_arg $ refresh_arg $ once_arg) in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over the --status file of a run in flight: current \
          pass, counter totals and rates, gauges, watchdog state")
    term

(* --- metrics --- *)

let metrics_cmd =
  let json_arg =
    let doc = "Emit the catalog as JSON instead of the text table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let check_arg =
    let doc =
      "Instead of printing the catalog, compare it against the metric table \
       in $(docv) (markdown rows of backticked name, kind, unit, engine). \
       Exit 1 on any drift, 2 when $(docv) is unreadable."
    in
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"DOC.md" ~doc)
  in
  let run json check =
    match check with
    | None ->
      print_string
        (if json then Sbm_report.Catalog.to_json ()
         else Sbm_report.Catalog.to_text ())
    | Some path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg ->
        Fmt.epr "sbm: %s@." msg;
        Stdlib.exit 2
      | src -> (
        match Sbm_report.Catalog.check src with
        | Ok n -> Fmt.pr "metrics: %d registered metrics match %s@." n path
        | Error msgs ->
          List.iter (fun m -> Fmt.epr "sbm: metrics drift: %s@." m) msgs;
          Stdlib.exit 1))
  in
  let term = Term.(const run $ json_arg $ check_arg) in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Print the registered-metric catalog (every counter and gauge the \
          binary can emit), or gate it against the table \
          documented in DESIGN.md")
    term

(* --- history --- *)

let history_cmd =
  let ledger_arg =
    let doc = "Ledger JSONL file written by $(b,sbm bench --ledger)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LEDGER.jsonl" ~doc)
  in
  let bench_arg =
    let doc = "Restrict the table to one benchmark." in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME" ~doc)
  in
  let metric_arg =
    let doc =
      "Metric to trend: "
      ^ String.concat ", " Sbm_report.History.qor_metrics
      ^ ", or any snapshot counter name."
    in
    Arg.(value & opt string "size" & info [ "metric" ] ~docv:"M" ~doc)
  in
  let run path bench metric =
    match Sbm_report.History.load path with
    | Error msg -> `Error (false, msg)
    | Ok [] -> `Error (false, path ^ ": no parsable ledger records")
    | Ok runs ->
      (* An unknown metric would render a table of "-" cells; fail
         loudly instead, listing what the ledger can trend (exit 2,
         the `sbm top` missing-input convention). *)
      let available = Sbm_report.History.available_metrics runs in
      if not (List.mem metric available) then begin
        Fmt.epr "sbm: unknown metric '%s'; available: %s@." metric
          (String.concat ", " available);
        Stdlib.exit 2
      end;
      print_string (Sbm_report.History.table ?bench ~metric runs);
      `Ok ()
  in
  let term = Term.(ret (const run $ ledger_arg $ bench_arg $ metric_arg)) in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Render run-over-run QoR trend tables from a bench ledger, \
          flagging metrics that got worse than the previous run")
    term

(* --- audit --- *)

let audit_cmd =
  let a_arg =
    let doc =
      "First fingerprint trail (JSONL written by $(b,--fingerprint))."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A.jsonl" ~doc)
  in
  let b_arg =
    let doc = "Second fingerprint trail to align against the first." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B.jsonl" ~doc)
  in
  let run a b =
    let load path =
      match Sbm_obs.Stream.load_trail path with
      | Error msg ->
        Fmt.epr "sbm: %s: %s@." path msg;
        Stdlib.exit 2
      | Ok [] ->
        Fmt.epr "sbm: %s: no parsable trail records@." path;
        Stdlib.exit 2
      | Ok records -> records
    in
    let ta = load a in
    let tb = load b in
    let outcome = Sbm_report.Audit.compare_trails ta tb in
    Fmt.pr "%a@?" (Sbm_report.Audit.pp ~name_a:a ~name_b:b) outcome;
    Stdlib.exit (Sbm_report.Audit.exit_code outcome)
  in
  let term = Term.(const run $ a_arg $ b_arg) in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Align two determinism audit trails and report the first diverging \
          pass or partition-merge boundary (exit 1 on divergence, 2 on \
          unreadable input)")
    term

let () =
  let doc = "Scalable Boolean Methods in a modern synthesis flow" in
  let info = Cmd.info "sbm" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        stats_cmd; generate_cmd; opt_cmd; lutmap_cmd; asic_cmd; cec_cmd;
        bench_cmd; diff_cmd; history_cmd; audit_cmd; attribute_cmd;
        profile_cmd; inspect_cmd; top_cmd; metrics_cmd;
      ]
  in
  exit (Cmd.eval group)
