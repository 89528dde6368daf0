(* Smoke test of the flow benchmark, run by [dune runtest]: a
   two-circuit slice of the quick workload, plain and traced, must pass
   its own checks and print every metric BENCHMARK.json names with the
   unit named there; a corrupted output must fail every run and the
   process. *)

module Json = Sbm_report.Json

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("smoke: " ^ msg);
      exit 1)
    fmt

(* Runs perf.exe; returns its exit code and its last stdout line,
   parsed. *)
let perf args =
  let ic = Unix.open_process_args_in "./perf.exe" (Array.of_list ("./perf.exe" :: args)) in
  let out = In_channel.input_all ic in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1 in
  let lines = String.split_on_char '\n' (String.trim out) in
  let last = List.nth lines (List.length lines - 1) in
  match Json.parse last with
  | json -> (code, json)
  | exception Json.Bad msg -> fail "%s: last line is not JSON (%s): %s" (String.concat " " args) msg last

let int key json =
  match Json.to_int (Json.member key json) with Some n -> n | None -> fail "no integer %S" key

let spec =
  Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)

(* Every metric of [section] prints with its unit, and nothing else prints. *)
let expect_metrics section result =
  let printed = Json.to_obj (Json.member "metrics" result) in
  let named = Json.to_list (Json.member section spec) in
  List.iter
    (fun m ->
      let name = Option.get (Json.to_str (Json.member "name" m)) in
      match List.assoc_opt name printed with
      | None -> fail "%s metric %s not printed" section name
      | Some v ->
        if Json.to_str (Json.member "unit" v) <> Json.to_str (Json.member "unit" m) then
          fail "metric %s printed with another unit" name;
        if Json.to_float (Json.member "value" v) = None then fail "metric %s has no value" name)
    named;
  if List.length printed <> List.length named then
    fail "%s: %d metrics printed, %d named" section (List.length printed) (List.length named)

let expect_clean what (code, result) ~attempted =
  if code <> 0 then fail "%s run exited %d" what code;
  if Json.to_bool (Json.member "correct" result) <> Some true then fail "%s run not correct" what;
  if int "failed" result <> 0 then fail "%s run failed %d runs" what (int "failed" result);
  (* A run whose output differs from the circuit's first output counts
     as failed, so a clean result with every run attempted means the
     QoR repeated exactly across rounds. *)
  if int "attempted" result <> attempted then
    fail "%s run attempted %d, expected %d" what (int "attempted" result) attempted

let () =
  let base = [ "--workload"; "quick"; "--circuits"; "ctrl,router"; "--seconds"; "0" ] in
  let plain = perf (base @ [ "--trace"; "0" ]) in
  expect_clean "plain" plain ~attempted:4;
  expect_metrics "end_to_end" (snd plain);
  let traced = perf (base @ [ "--trace"; "1"; "--trace-out"; "smoke.trace.json" ]) in
  expect_clean "traced" traced ~attempted:4;
  expect_metrics "per_layer" (snd traced);
  (match Sbm_report.Profile.load "smoke.trace.json" with
  | Ok (_ :: _) -> ()
  | Ok [] -> fail "trace has no spans"
  | Error msg -> fail "trace does not load: %s" msg);
  let code, result =
    perf [ "--workload"; "quick"; "--circuits"; "ctrl"; "--seconds"; "0"; "--corrupt-output" ]
  in
  if code = 0 then fail "corrupted output: exit code 0";
  if int "failed" result <> int "attempted" result || int "attempted" result = 0 then
    fail "corrupted output: %d of %d runs failed" (int "failed" result) (int "attempted" result)
