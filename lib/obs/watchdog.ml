module S = Stream

type action = Note | Abort

type config = {
  pass_deadline_ms : float option;
  max_bail_streak : int option;
  stall_rounds : int option;
  max_heap_mb : float option;
  heartbeat_ms : float option;
  action : action;
}

let default_config =
  {
    pass_deadline_ms = None;
    max_bail_streak = None;
    stall_rounds = None;
    max_heap_mb = None;
    heartbeat_ms = None;
    action = Note;
  }

type state = {
  config : config;
  mutable bail_streak : int;
  mutable stall_streak : int;
  mutable heap_fired : bool;
  mutable last_beat_ns : int64;
  mutable last_beat_pass : string; (* pass path at the last beat *)
  mutable beats : int;
}

let armed : state option ref = ref None

let abort = ref false

(* When stderr is not a TTY (CI logs, redirects) the heartbeat fires
   once per pass-path change instead of once per interval, so a long
   pass leaves one line, not hundreds. [force_tty] lets tests pin the
   decision without a pty. *)
let force_tty : bool option ref = ref None

let stderr_is_tty =
  lazy (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let tty () =
  match !force_tty with Some b -> b | None -> Lazy.force stderr_is_tty

let beats () = match !armed with Some st -> st.beats | None -> 0

(* The verdict's one record. *)
let fire st rule detail =
  let aborting = st.config.action = Abort in
  S.append ~kind:S.Verdict ~severity:(if aborting then S.Error else S.Warn)
    ~engine:"watchdog" ~id:rule detail;
  if aborting then abort := true

(* The record rules: a pass end clears a pending abort, and a streak of
   bailing partitions or of zero-gain rounds grows on each bad record
   and restarts on a good one; at its limit the rule fires and the
   streak restarts. *)
let observe (r : S.record) =
  match !armed with
  | None -> ()
  | Some st -> (
    let streak count limit bad rule detail =
      match limit with
      | Some l when bad && count + 1 >= l ->
        fire st rule (detail (count + 1));
        0
      | _ -> if bad then count + 1 else 0
    in
    let metric = List.assoc_opt (if r.kind = S.Merge then "bails" else "gain") in
    match (r.kind, metric r.metrics) with
    | S.Pass, _ -> abort := false
    | S.Merge, Some bails ->
      st.bail_streak <-
        streak st.bail_streak st.config.max_bail_streak (bails > 0)
          "bail-streak" (fun n ->
            Printf.sprintf
              "%d consecutive partitions bailed on the BDD budget (engine %s)"
              n r.engine)
    | S.Round, Some gain ->
      st.stall_streak <-
        streak st.stall_streak st.config.stall_rounds (gain <= 0)
          "gradient-stall"
          (Printf.sprintf "%d consecutive zero-gain gradient rounds")
    | _ -> ())

let arm config =
  if not (S.recorder_on ()) then S.enable_recorder ();
  armed :=
    Some
      { config; bail_streak = 0; stall_streak = 0; heap_fired = false;
        last_beat_ns = 0L; last_beat_pass = ""; beats = 0 };
  abort := false;
  S.react := observe

let disarm () =
  armed := None;
  abort := false;
  S.react := ignore

let abort_requested () = !abort

let ms_of_ns = Json.ms_of_ns

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

let heartbeat st now =
  match st.config.heartbeat_ms with
  | None -> ()
  | Some interval ->
    let where =
      match Span_stack.names ~passes_only:true () with
      | [] -> "-"
      | names -> String.concat ">" names
    in
    let interval_due = ms_of_ns (Int64.sub now st.last_beat_ns) >= interval in
    (* Interactive stderr: pulse every interval. Piped stderr: only
       when the run moved to a different pass path (and the interval
       elapsed, so a fast pass sequence doesn't spam either). *)
    let due =
      if tty () then interval_due
      else interval_due && where <> st.last_beat_pass
    in
    if due then begin
      st.last_beat_ns <- now;
      st.last_beat_pass <- where;
      st.beats <- st.beats + 1;
      Printf.eprintf "[sbm %7.1fs] pass=%s heap=%.0fMB events=%d verdicts=%d\n%!"
        (ms_of_ns now /. 1000.0) where (heap_mb ()) (S.recorded ())
        (S.verdicts ())
    end

let poll () =
  match !armed with
  | None -> ()
  | Some st ->
    let now = S.elapsed_ns () in
    (match st.config.pass_deadline_ms with
    | None -> ()
    | Some deadline ->
      (* Any open pass past its deadline fires, deepest first; a pass
         that is slow because a child is slow still gets its own
         verdict once the child's fired. [deadline_fired] keeps a
         stuck pass from refiring on every poll. *)
      let clock = Span_stack.monotonic_ns () in
      List.iter
        (fun (f : Span_stack.frame) ->
          if not f.deadline_fired then begin
            let open_ms = ms_of_ns (Int64.sub clock f.t0) in
            if open_ms > deadline then begin
              f.deadline_fired <- true;
              fire st "pass-deadline"
                (Printf.sprintf "pass '%s' open for %.0fms (deadline %.0fms)"
                   f.name open_ms deadline)
            end
          end)
        (Span_stack.passes ()));
    (match st.config.max_heap_mb with
    | Some limit when not st.heap_fired ->
      let mb = heap_mb () in
      if mb > limit then begin
        st.heap_fired <- true;
        fire st "heap-growth"
          (Printf.sprintf "major heap %.0fMB exceeds %.0fMB" mb limit)
      end
    | _ -> ());
    heartbeat st now
