module FR = Flight_recorder

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
  mutable config : config option; (* None = disarmed *)
  mutable bail_streak : int;
  mutable stall_streak : int;
  mutable heap_fired : bool;
  mutable last_beat_ns : int64;
  mutable last_beat_pass : string; (* pass path at the last beat *)
  mutable beats : int;
  (* Atomic so worker domains can read it lock-free; only the main
     domain ever writes (workers honour it at partition boundaries). *)
  abort : bool Atomic.t;
}

let st =
  {
    config = None;
    bail_streak = 0;
    stall_streak = 0;
    heap_fired = false;
    last_beat_ns = 0L;
    last_beat_pass = "";
    beats = 0;
    abort = Atomic.make false;
  }

(* When stderr is not a TTY (CI logs, redirects) the heartbeat fires
   once per pass-path change instead of once per interval, so a long
   pass leaves one line, not hundreds. [force_tty] lets tests pin the
   decision without a pty. *)
let force_tty : bool option ref = ref None

let stderr_is_tty =
  lazy (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let tty () =
  match !force_tty with Some b -> b | None -> Lazy.force stderr_is_tty

let beats () = st.beats

let enabled () = st.config <> None

let arm config =
  if not (FR.enabled ()) then FR.enable ();
  st.config <- Some config;
  st.bail_streak <- 0;
  st.stall_streak <- 0;
  st.heap_fired <- false;
  st.last_beat_ns <- 0L;
  st.last_beat_pass <- "";
  st.beats <- 0;
  Atomic.set st.abort false

let disarm () =
  st.config <- None;
  Atomic.set st.abort false

let abort_requested () = Atomic.get st.abort
let clear_abort () = Atomic.set st.abort false

(* The recorder event is the verdict's one record. *)
let fire (config : config) rule detail =
  let abort = config.action = Abort in
  FR.record ~severity:(if abort then Error else Warn) ~engine:"watchdog"
    ~id:rule detail;
  if abort then Atomic.set st.abort true

let ms_of_ns = Json.ms_of_ns

let note_partition ~engine ~bails =
  match st.config with
  | None -> ()
  | Some config ->
    if bails > 0 then begin
      st.bail_streak <- st.bail_streak + 1;
      match config.max_bail_streak with
      | Some limit when st.bail_streak >= limit ->
        fire config "bail-streak"
          (Printf.sprintf
             "%d consecutive partitions bailed on the BDD budget (engine %s)"
             st.bail_streak engine);
        st.bail_streak <- 0
      | _ -> ()
    end
    else st.bail_streak <- 0

let note_round ~gain =
  match st.config with
  | None -> ()
  | Some config ->
    if gain > 0 then st.stall_streak <- 0
    else begin
      st.stall_streak <- st.stall_streak + 1;
      match config.stall_rounds with
      | Some limit when st.stall_streak >= limit ->
        fire config "gradient-stall"
          (Printf.sprintf "%d consecutive zero-gain gradient rounds"
             st.stall_streak);
        st.stall_streak <- 0
      | _ -> ()
    end

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

let heartbeat config now =
  match config.heartbeat_ms with
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
        (ms_of_ns now /. 1000.0) where (heap_mb ()) (FR.recorded ())
        (List.length (FR.verdicts ()))
    end

let poll () =
  match st.config with
  | None -> ()
  | Some config ->
    let now = FR.elapsed_ns () in
    (match config.pass_deadline_ms with
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
              fire config "pass-deadline"
                (Printf.sprintf "pass '%s' open for %.0fms (deadline %.0fms)"
                   f.name open_ms deadline)
            end
          end)
        (Span_stack.passes ()));
    (match config.max_heap_mb with
    | None -> ()
    | Some limit ->
      if not st.heap_fired then begin
        let mb = heap_mb () in
        if mb > limit then begin
          st.heap_fired <- true;
          fire config "heap-growth"
            (Printf.sprintf "major heap %.0fMB exceeds %.0fMB" mb limit)
        end
      end);
    heartbeat config now
