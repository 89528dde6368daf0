(* `sbm top` — live dashboard over a --status JSONL file.

   The status file is rewritten whole via atomic rename by the run's
   poll, so each read here sees a complete, consistent history
   (one JSON sample per line, oldest first). Rendering is pure — the
   interactive loop in [run] adds the ANSI clear/home sequence itself,
   so tests and --once get plain text. *)

module Status = Sbm_obs.Status

let fmt_rate r =
  if Float.abs r >= 10_000. then Printf.sprintf "%.0f/s" r
  else if Float.abs r >= 10. then Printf.sprintf "%.1f/s" r
  else Printf.sprintf "%.2f/s" r

(* One screenful: header, open-span path, non-zero counters with a
   per-second rate derived from the previous sample, then gauges. *)
let render ?prev (v : Status.sample) =
  let b = Buffer.create 2048 in
  let state =
    if v.abort then "ABORT REQUESTED"
    else if v.finished then "finished"
    else "running"
  in
  Buffer.add_string b
    (Printf.sprintf "sbm top — t=+%.1fs  seq=%d  verdicts=%d  [%s]\n" (v.t_ms /. 1000.)
       v.seq v.verdicts state);
  Buffer.add_string b
    (Printf.sprintf "pass: %s\n\n" (if v.pass = "" then "(idle)" else v.pass));
  let dt_s =
    match prev with
    | Some (p : Status.sample) when v.t_ms > p.t_ms ->
      Some ((v.t_ms -. p.t_ms) /. 1000.)
    | _ -> None
  in
  let live = List.filter (fun (_, x) -> x <> 0) v.counters in
  if live = [] then Buffer.add_string b "counters: (none yet)\n"
  else begin
    let nw =
      List.fold_left (fun acc (k, _) -> max acc (String.length k)) 8 live
    in
    Buffer.add_string b (Printf.sprintf "%-*s  %12s  %10s\n" nw "counter" "total" "rate");
    List.iter
      (fun (k, x) ->
        let rate =
          match (dt_s, prev) with
          | Some dt, Some p ->
            let px = Option.value ~default:0 (List.assoc_opt k p.counters) in
            fmt_rate (float_of_int (x - px) /. dt)
          | _ -> "-"
        in
        Buffer.add_string b (Printf.sprintf "%-*s  %12d  %10s\n" nw k x rate))
      live
  end;
  Buffer.add_char b '\n';
  List.iter
    (fun (k, x) -> Buffer.add_string b (Printf.sprintf "%-28s  %12d\n" k x))
    v.gauges;
  Buffer.contents b

let last2 views =
  match List.rev views with
  | last :: prev :: _ -> (Some prev, last)
  | [ last ] -> (None, last)
  | [] -> assert false (* load never returns [] *)

(* Interactive loop: poll the file, clear the screen, redraw. Exits 0
   once the run writes its finished sample (or immediately with
   --once), 2 when --once finds no readable file. While looping, a
   missing file just means the run has not started yet — keep
   waiting. *)
let run ?(refresh_ms = 500.) ?(once = false) path =
  let interactive = (not once) && Unix.isatty Unix.stdout in
  let draw () =
    match Status.load path with
    | Error msg ->
      if once then begin
        prerr_endline ("sbm top: " ^ msg);
        Some 2
      end
      else begin
        if interactive then print_string "\x1b[2J\x1b[H";
        Printf.printf "sbm top: waiting for %s ...\n%!" path;
        None
      end
    | Ok views ->
      let prev, last = last2 views in
      if interactive then print_string "\x1b[2J\x1b[H";
      print_string (render ?prev last);
      flush stdout;
      if once || last.finished then Some 0 else None
  in
  let rec loop () =
    match draw () with
    | Some code -> code
    | None ->
      Unix.sleepf (Float.max 0.05 (refresh_ms /. 1000.));
      loop ()
  in
  loop ()
