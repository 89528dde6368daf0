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
   in sequence order and overwritten modulo capacity. *)
type state = {
  mutable ring : event array;
  mutable seq : int; (* next sequence number = total recorded *)
  mutable t0 : int64; (* enable time *)
}

let st = { ring = [||]; seq = 0; t0 = 0L }

let enabled () = st.ring != [||]

let dummy =
  { seq = -1; t_ns = 0L; severity = Debug; engine = ""; id = ""; message = "";
    metrics = [] }

let enable ?(capacity = 512) () =
  st.ring <- Array.make (max 16 capacity) dummy;
  st.seq <- 0;
  st.t0 <- Span_stack.monotonic_ns ()

let disable () =
  st.ring <- [||];
  st.seq <- 0

let capacity () = Array.length st.ring

let elapsed_ns () =
  if enabled () then Int64.sub (Span_stack.monotonic_ns ()) st.t0 else 0L

let t0_ns () = if enabled () then st.t0 else 0L

(* Worker-domain buffering. The ring and its counters are owned by the
   main domain; a worker domain that must record (BDD bails, cache
   collapses) runs under [capture], which installs a domain-local
   buffer. Buffered events keep their true timestamps and are merged
   into the ring by [replay] on the main domain with fresh sequence
   numbers, so the merged order is chosen deterministically by the
   caller, not by scheduling. *)
let buffer_key : event list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record ?(severity = Info) ?(id = "") ?(metrics = []) ~engine message =
  if enabled () then begin
    match Domain.DLS.get buffer_key with
    | Some buf ->
      buf :=
        { seq = -1; t_ns = elapsed_ns (); severity; engine; id; message; metrics }
        :: !buf
    | None ->
      let seq = st.seq in
      st.seq <- seq + 1;
      st.ring.(seq mod Array.length st.ring) <-
        { seq; t_ns = elapsed_ns (); severity; engine; id; message; metrics }
  end

let capture f =
  let buf = ref [] in
  let prev = Domain.DLS.get buffer_key in
  Domain.DLS.set buffer_key (Some buf);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set buffer_key prev)
    (fun () ->
      let r = f () in
      (r, List.rev !buf))

let replay events =
  if enabled () then
    List.iter
      (fun e ->
        let seq = st.seq in
        st.seq <- seq + 1;
        st.ring.(seq mod Array.length st.ring) <- { e with seq })
      events

let events () =
  if not (enabled ()) then []
  else begin
    let cap = Array.length st.ring in
    let n = min st.seq cap in
    let first = st.seq - n in
    List.init n (fun i -> st.ring.((first + i) mod cap))
  end

let recorded () = st.seq
let dropped () = max 0 (st.seq - Array.length st.ring)

(* --- JSON: the one event serializer, shared by the trace document and
   the post-mortem dump. [t0] adds the absolute clock reading. --- *)

let buf_event ?t0 b (e : event) =
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"t_ms\":%.3f" e.seq (Json.ms_of_ns e.t_ns));
  Option.iter
    (fun t0 ->
      Buffer.add_string b (Printf.sprintf ",\"t_ns\":%Ld" (Int64.add t0 e.t_ns)))
    t0;
  Buffer.add_string b
    (Printf.sprintf
       ",\"severity\":\"%s\",\"engine\":\"%s\",\"id\":\"%s\",\"message\":\"%s\",\"metrics\":"
       (severity_to_string e.severity)
       (Json.escape e.engine) (Json.escape e.id) (Json.escape e.message));
  Json.buf_counters b e.metrics;
  Buffer.add_char b '}'

(* The absolute reading, when both it and the origin are present, gives
   the exact offset; otherwise [t_ms] does, to the microsecond. *)
let event_of_json ?t0 j =
  let t_ns =
    match (t0, Json.(to_float (member "t_ns" j))) with
    | Some t0, Some abs -> Int64.sub (Int64.of_float abs) t0
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
