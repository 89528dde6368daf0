type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

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
