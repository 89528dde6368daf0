type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_of_string = function
  | "debug" -> Debug
  | "warn" -> Warn
  | "error" -> Error
  | _ -> Info

type event = {
  seq : int;
  t_ns : int64;
  severity : severity;
  engine : string;
  id : string;
  message : string;
  metrics : (string * int) list;
}

(* Ring state. [ring] is empty exactly when disabled; slots are filled
   in sequence order and overwritten modulo capacity. A verdict the
   ring overwrites moves to [kept]. *)
type state = {
  mutable ring : event array;
  mutable seq : int; (* next sequence number = total recorded *)
  mutable t0 : int64; (* enable time *)
  mutable kept : event list; (* overwritten verdicts, newest first *)
}

let st = { ring = [||]; seq = 0; t0 = 0L; kept = [] }

let enabled () = st.ring != [||]

let dummy =
  { seq = -1; t_ns = 0L; severity = Debug; engine = ""; id = ""; message = "";
    metrics = [] }

let enable ?(capacity = 512) () =
  st.ring <- Array.make (max 16 capacity) dummy;
  st.seq <- 0;
  st.kept <- [];
  st.t0 <- Span_stack.monotonic_ns ()

let disable () =
  st.ring <- [||];
  st.seq <- 0;
  st.kept <- []

let capacity () = Array.length st.ring

let elapsed_ns () =
  if enabled () then Int64.sub (Span_stack.monotonic_ns ()) st.t0 else 0L

let t0_ns () = if enabled () then st.t0 else 0L

let is_verdict e = e.engine = "watchdog"

(* Main domain only: the next sequence number, and a verdict in the
   slot survives in [kept]. *)
let append e =
  if enabled () then begin
    let seq = st.seq in
    st.seq <- seq + 1;
    let slot = seq mod Array.length st.ring in
    if is_verdict st.ring.(slot) then st.kept <- st.ring.(slot) :: st.kept;
    st.ring.(slot) <- { e with seq }
  end

(* On a worker domain the event keeps its true timestamp and waits in
   the shard until [Sbm_obs.replay] appends it, in an order the caller
   chooses, not the scheduler. *)
let record ?(severity = Info) ?(id = "") ?(metrics = []) ~engine message =
  if enabled () then begin
    let e =
      { seq = -1; t_ns = elapsed_ns (); severity; engine; id; message; metrics }
    in
    match Domain.DLS.get Metrics.shard with
    | Some s -> s.deferred <- (fun () -> append e) :: s.deferred
    | None -> append e
  end

let events () =
  if not (enabled ()) then []
  else begin
    let cap = Array.length st.ring in
    let n = min st.seq cap in
    let first = st.seq - n in
    List.rev_append st.kept
      (List.init n (fun i -> st.ring.((first + i) mod cap)))
  end

let verdicts () = List.filter is_verdict (events ())
let recorded () = st.seq

let dropped () =
  max 0 (st.seq - Array.length st.ring) - List.length st.kept

(* --- JSON: the one event serializer, shared by the trace document and
   the post-mortem dump. [t0] adds the absolute clock reading. --- *)

let buf_event ?t0 b (e : event) =
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"t_ms\":%.3f" e.seq (Json.ms_of_ns e.t_ns));
  Option.iter
    (fun t0 ->
      Buffer.add_string b
        (Printf.sprintf ",\"t_ns\":\"%Ld\"" (Int64.add t0 e.t_ns)))
    t0;
  Buffer.add_string b
    (Printf.sprintf
       ",\"severity\":\"%s\",\"engine\":\"%s\",\"id\":\"%s\",\"message\":\"%s\",\"metrics\":"
       (severity_to_string e.severity)
       (Json.escape e.engine) (Json.escape e.id) (Json.escape e.message));
  Json.buf_counters b e.metrics;
  Buffer.add_char b '}'

(* An absolute clock reading: a decimal string, exact past 2^53 ns,
   or a number in version-1 dumps. *)
let ns_of_json = function
  | Some (Json.Str s) -> Int64.of_string_opt s
  | Some (Json.Num f) -> Some (Int64.of_float f)
  | _ -> None

(* The absolute reading, when both it and the origin are present, gives
   the exact offset; otherwise [t_ms] does, to the microsecond. *)
let event_of_json ?t0 j =
  let t_ns =
    match (t0, ns_of_json (Json.member "t_ns" j)) with
    | Some t0, Some abs -> Int64.sub abs t0
    | _ -> Json.ns_of_ms (Json.num "t_ms" j)
  in
  {
    seq = Json.int "seq" j;
    t_ns;
    severity = severity_of_string (Json.str ~default:"info" "severity" j);
    engine = Json.str ~default:"?" "engine" j;
    id = Json.str "id" j;
    message = Json.str "message" j;
    metrics = Json.counters "metrics" j;
  }
