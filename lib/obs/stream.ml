(* The in-flight record stream (contract in the .mli). Records are
   stored on the main domain only: pass boundaries run there, and
   merge boundaries run there in ascending partition index. *)

module H = Sbm_util.Hash64

type severity = Debug | Info | Warn | Error
type kind = Note | Pass_start | Pass | Merge | Round | Verdict

let severities =
  [ (Debug, "debug"); (Info, "info"); (Warn, "warn"); (Error, "error") ]

let kinds =
  [ (Note, "note"); (Pass_start, "pass-start"); (Pass, "pass");
    (Merge, "merge"); (Round, "round"); (Verdict, "verdict") ]

let severity_to_string s = List.assoc s severities
let kind_to_string k = List.assoc k kinds

let of_string table s =
  List.find_map (fun (v, n) -> if n = s then Some v else None) table

type link = {
  index : int;
  boundary : kind;
  label : string;
  structure : int64;
  counters_digest : int64;
  bank : int64;
  seeds : int64;
  chain : int64;
  counters : (string * int) list;
}

type record = {
  seq : int;
  t_ns : int64;
  kind : kind;
  severity : severity;
  engine : string;
  id : string;
  message : string;
  metrics : (string * int) list;
  link : link option;
}

let is_verdict r = r.kind = Verdict

(* The recorder's ring is empty exactly when it is off; it fills in
   sequence order from [first], modulo its capacity, and a verdict it
   overwrites moves to [kept]. *)
type state = {
  mutable seq : int; (* next sequence number *)
  mutable t0 : int64; (* the clock's origin *)
  mutable ring : record array;
  mutable first : int; (* seq of the recorder's first record *)
  mutable kept : record list; (* overwritten verdicts, newest first *)
  mutable verdicts : int;
  mutable trail : bool;
  mutable links : link list; (* the trail, newest first *)
  mutable baseline : Metrics.snapshot; (* counters at trail start *)
  mutable out : out_channel option;
  mutable bank_source : (unit -> int64 * int64) option;
}

let st =
  { seq = 0; t0 = Span_stack.monotonic_ns (); ring = [||]; first = 0;
    kept = []; verdicts = 0; trail = false; links = [];
    baseline = Metrics.snapshot (); out = None; bank_source = None }

let recorder_on () = st.ring != [||]
let on () = recorder_on () || st.trail
let elapsed_ns () = Int64.sub (Span_stack.monotonic_ns ()) st.t0
let t0_ns () = st.t0

let open_stream () =
  if not (on ()) then begin
    st.seq <- 0;
    st.t0 <- Span_stack.monotonic_ns ()
  end

let enable_recorder ?(capacity = 512) () =
  open_stream ();
  st.ring <-
    Array.make (max 16 capacity)
      { seq = -1; t_ns = 0L; kind = Note; severity = Debug; engine = "";
        id = ""; message = ""; metrics = []; link = None };
  st.first <- st.seq;
  st.kept <- [];
  st.verdicts <- 0

let close_out () =
  Option.iter close_out_noerr st.out;
  st.out <- None

let enable_trail ?path () =
  close_out ();
  let out = Option.map open_out path in
  open_stream ();
  st.trail <- true;
  st.links <- [];
  st.baseline <- Metrics.snapshot ();
  st.out <- out

let close () =
  st.ring <- [||];
  st.kept <- [];
  st.trail <- false;
  close_out ();
  st.links <- [];
  st.bank_source <- None

let set_bank_source f = st.bank_source <- f

(* --- JSON: the one writer and reader, shared by the trail file, the
   trace document and the post-mortem dump --- *)

let buf_link b (l : link) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"seq\":%d,\"kind\":\"%s\",\"label\":\"%s\",\"structure\":\"%016Lx\",\"counters\":\"%016Lx\",\"bank\":\"%016Lx\",\"seeds\":\"%016Lx\",\"chain\":\"%016Lx\""
       l.index (kind_to_string l.boundary) (Json.escape l.label) l.structure
       l.counters_digest l.bank l.seeds l.chain);
  if l.counters <> [] then begin
    Buffer.add_string b ",\"counter_values\":";
    Json.buf_counters b l.counters
  end;
  Buffer.add_char b '}'

let link_of_json j =
  let hex f =
    match Json.(to_str (member f j)) with
    | None -> Some 0L
    | Some s -> Int64.of_string_opt ("0x" ^ s)
  in
  match
    ( Json.(to_int (member "seq" j)),
      Option.bind Json.(to_str (member "kind" j)) (of_string kinds),
      Json.(to_str (member "label" j)),
      List.map hex [ "structure"; "counters"; "bank"; "seeds"; "chain" ] )
  with
  | ( Some index, Some ((Pass | Merge) as boundary), Some label,
      [ Some structure; Some counters_digest; Some bank; Some seeds;
        Some chain ] ) ->
    Some
      { index; boundary; label; structure; counters_digest; bank; seeds; chain;
        counters = Json.counters "counter_values" j }
  | _ -> None

let buf_record b (r : record) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"seq\":%d,\"t_ms\":%.3f,\"kind\":\"%s\",\"severity\":\"%s\",\"engine\":\"%s\",\"id\":\"%s\",\"message\":\"%s\",\"metrics\":"
       r.seq (Json.ms_of_ns r.t_ns) (kind_to_string r.kind)
       (severity_to_string r.severity)
       (Json.escape r.engine) (Json.escape r.id) (Json.escape r.message));
  Json.buf_counters b r.metrics;
  Option.iter
    (fun l ->
      Buffer.add_string b ",\"link\":";
      buf_link b l)
    r.link;
  Buffer.add_char b '}'

(* A record written before the "kind" key (dump versions 1 and 2) is
   known by its engine and message. *)
let record_of_json j =
  let engine = Json.str ~default:"?" "engine" j in
  let message = Json.str "message" j in
  let kind =
    match Option.bind Json.(to_str (member "kind" j)) (of_string kinds) with
    | Some k -> k
    | None when engine = "watchdog" -> Verdict
    | None ->
      Option.value ~default:Note
        (List.assoc_opt message
           [ ("pass start", Pass_start); ("pass end", Pass);
             ("partition done", Merge); ("round done", Round) ])
  in
  { seq = Json.int "seq" j; t_ns = Json.ns_of_ms (Json.num "t_ms" j); kind;
    severity =
      Option.value ~default:Info (of_string severities (Json.str "severity" j));
    engine; id = Json.str "id" j; message;
    metrics = Json.counters "metrics" j;
    link = Option.bind (Json.member "link" j) link_of_json }

(* A run that died mid-write leaves a torn final line, which
   [Json.load_lines] skips. *)
let load_trail path =
  Result.map (List.filter_map link_of_json) (Json.load_lines path)

(* --- the trail's links --- *)

let m_records =
  Metrics.counter ~engine:"fingerprint" ~unit_:"records" "fingerprint.records"
    "determinism audit-trail records emitted (pass and merge boundaries)"

let m_injected =
  Metrics.counter ~engine:"fingerprint" ~unit_:"records" "fingerprint.injected"
    "audit-trail records perturbed by SBM_NONDET_INJECT (test-only)"

(* Test-only, like SBM_FAIL_AFTER in Flow: SBM_NONDET_INJECT=pass:N
   plants a divergence that `sbm audit` must localize to exactly that
   merge boundary. *)
let inject =
  ref
    (Option.bind (Sys.getenv_opt "SBM_NONDET_INJECT") (fun s ->
         Option.join
           (Scanf.sscanf_opt s "%[^:]:%d%!" (fun pass n ->
                if pass = "" then None else Some (pass, n)))))

let inject_mask = H.finalize 0xbadc0ffee0ddf00dL

(* FNV-1a 64-bit over a string. *)
let hash_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

(* A link's label is the path of the innermost pass frame of the one
   span stack; a merge's appends "<engine>-partition-<n>" and may take
   the planted perturbation. *)
let link_of r structure =
  let inner = match Span_stack.passes () with [] -> None | f :: _ -> Some f in
  let structure, label =
    if r.kind = Pass then
      (structure, match inner with None -> "?" | Some f -> f.path)
    else begin
      let pass_name = match inner with None -> r.engine | Some f -> f.name in
      let planted =
        match !inject with
        | Some (pass, n) ->
          r.id = Printf.sprintf "partition-%d" n
          && (pass = pass_name || pass = r.engine)
        | None -> false
      in
      if planted then Metrics.incr m_injected;
      let merge = r.engine ^ "-" ^ r.id in
      ( (if planted then Int64.logxor structure inject_mask else structure),
        match inner with None -> merge | Some f -> f.path ^ "/" ^ merge )
    end
  in
  (* The nonzero counter deltas since the trail started, by name. *)
  let counters =
    Metrics.activity st.baseline (Metrics.snapshot ())
    |> List.filter_map (fun (k, v, _) -> if v <> 0 then Some (k, v) else None)
  in
  let counters_digest =
    List.fold_left
      (fun acc (k, v) -> H.mix2 (H.mix2 acc (hash_string k)) (Int64.of_int v))
      (H.finalize 0x9e3779b9L) counters
  in
  let bank, seeds =
    match st.bank_source with None -> (0L, 0L) | Some f -> f ()
  in
  (* The new link extends the latest one. *)
  let prev, index =
    match st.links with
    | l :: _ -> (l.chain, l.index + 1)
    | [] -> (H.finalize 0x5bd1e9955bd1e995L, 0)
  in
  let chain =
    H.mix2
      (H.mix2
         (H.mix2
            (H.mix2 prev (hash_string label))
            (if r.kind = Pass then 1L else 2L))
         (H.mix2 structure counters_digest))
      (H.mix2 bank seeds)
  in
  (* Bumped after the digest is taken, so a link's own count is not
     part of its delta: consistently, hence deterministically. *)
  Metrics.incr m_records;
  { index; boundary = r.kind; label; structure; counters_digest; bank; seeds;
    chain; counters }

(* --- appending --- *)

let react : (record -> unit) ref = ref ignore

let linked kind = st.trail && (kind = Pass || kind = Merge)

(* Main domain only. A record no view keeps takes no sequence number. *)
let push ?(structure = fun () -> 0L) (r : record) =
  let linked = linked r.kind in
  if recorder_on () || linked then begin
    let link = if linked then Some (link_of r (structure ())) else None in
    let r = { r with seq = st.seq; link } in
    st.seq <- st.seq + 1;
    if recorder_on () then begin
      let slot = r.seq mod Array.length st.ring in
      if is_verdict st.ring.(slot) then st.kept <- st.ring.(slot) :: st.kept;
      st.ring.(slot) <- r;
      if is_verdict r then st.verdicts <- st.verdicts + 1
    end;
    Option.iter
      (fun l ->
        st.links <- l :: st.links;
        Option.iter
          (fun oc ->
            let b = Buffer.create 512 in
            buf_link b l;
            Buffer.add_char b '\n';
            Buffer.output_buffer oc b;
            flush oc)
          st.out)
      link;
    !react r
  end

(* A record's time is kept to the microsecond its JSON holds, so it
   reads back equal. *)
let append ?(kind = Note) ?(severity = Info) ?(id = "") ?(metrics = [])
    ?structure ~engine message =
  if recorder_on () || linked kind then
    push ?structure
      { seq = -1; t_ns = Int64.mul 1000L (Int64.div (elapsed_ns ()) 1000L);
        kind; severity; engine; id; message; metrics; link = None }

(* --- reading --- *)

let capacity () = Array.length st.ring
let recorded () = if recorder_on () then st.seq - st.first else 0
let dropped () = max 0 (recorded () - capacity ()) - List.length st.kept
let verdicts () = if recorder_on () then st.verdicts else 0
let trail () = List.rev st.links
let chain () = match st.links with l :: _ -> l.chain | [] -> 0L

let events () =
  let n = min (recorded ()) (capacity ()) in
  List.rev_append st.kept
    (List.init n (fun i -> st.ring.((st.seq - n + i) mod capacity ())))
