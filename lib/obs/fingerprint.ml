(* Determinism audit trail (contract in the .mli). Records are only
   ever appended on the main domain: pass boundaries run there by
   construction, and merge boundaries ([finish_partition] in the
   engines) run there in ascending partition index in both the
   sequential and the parallel path. *)

module H = Sbm_util.Hash64

type kind = Pass | Merge

let kind_to_string = function Pass -> "pass" | Merge -> "merge"
let kind_of_string = function
  | "pass" -> Some Pass
  | "merge" -> Some Merge
  | _ -> None

type record = {
  seq : int; (* position in the trail, from 0 *)
  kind : kind;
  label : string; (* pass path, or path/engine-partition-N for merges *)
  structure : int64;
  counters_digest : int64;
  bank : int64;
  seeds : int64;
  chain : int64; (* commits to every prior record *)
  counters : (string * int) list; (* full delta vector (pass records) *)
}

(* FNV-1a 64-bit over a string. *)
let hash_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let chain_init = H.finalize 0x5bd1e9955bd1e995L

let counters_hash counters =
  List.fold_left
    (fun acc (k, v) -> H.mix2 (H.mix2 acc (hash_string k)) (Int64.of_int v))
    (H.finalize 0x9e3779b9L) counters

type state = {
  mutable enabled : bool;
  mutable records : record list; (* newest first *)
  mutable seq : int;
  mutable chain : int64;
  mutable baseline : Metrics.snapshot; (* counters at enable *)
  mutable out : out_channel option; (* streaming sink *)
  mutable bank_source : (unit -> int64 * int64) option;
}

let state =
  {
    enabled = false;
    records = [];
    seq = 0;
    chain = chain_init;
    baseline = Metrics.snapshot ();
    out = None;
    bank_source = None;
  }

let enabled () = state.enabled

let m_records =
  Metrics.counter ~engine:"fingerprint" ~unit_:"records" "fingerprint.records"
    "determinism audit-trail records emitted (pass and merge boundaries)"

let m_injected =
  Metrics.counter ~engine:"fingerprint" ~unit_:"records" "fingerprint.injected"
    "audit-trail records perturbed by SBM_NONDET_INJECT (test-only)"

(* --- test-only nondeterminism injection ---

   Mirrors SBM_FAIL_AFTER in Flow: SBM_NONDET_INJECT=pass:N XORs a
   fixed mask into the structure component of every merge record for
   partition N of any pass whose innermost name (or engine label)
   matches — a planted divergence that `sbm audit` must localize to
   exactly that boundary. The env var is read lazily so tests can set
   it per-process; the ref is the in-process test hook. *)

let inject : (string * int) option ref = ref None
let inject_env_read = ref false

let parse_inject s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let pass = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt rest with
    | Some n when pass <> "" -> Some (pass, n)
    | _ -> None)

let injection () =
  if not !inject_env_read then begin
    inject_env_read := true;
    match Sys.getenv_opt "SBM_NONDET_INJECT" with
    | Some s when !inject = None -> inject := parse_inject s
    | _ -> ()
  end;
  !inject

let inject_mask = H.finalize 0xbadc0ffee0ddf00dL

(* --- record assembly --- *)

let record_to_json (r : record) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"seq\":%d,\"kind\":\"%s\",\"label\":\"%s\",\"structure\":\"%016Lx\",\"counters\":\"%016Lx\",\"bank\":\"%016Lx\",\"seeds\":\"%016Lx\",\"chain\":\"%016Lx\""
       r.seq (kind_to_string r.kind) (Json.escape r.label) r.structure
       r.counters_digest r.bank r.seeds r.chain);
  if r.counters <> [] then begin
    Buffer.add_string b ",\"counter_values\":";
    Json.buf_counters b r.counters
  end;
  Buffer.add_char b '}';
  Buffer.contents b

(* Hex components read as 0 when absent; a record missing its seq,
   kind or label, or with an unparsable component, is rejected. *)
let record_of_json j =
  let hex f =
    match Json.(to_str (member f j)) with
    | None -> Some 0L
    | Some s -> Int64.of_string_opt ("0x" ^ s)
  in
  match
    ( Json.(to_int (member "seq" j)),
      Option.bind Json.(to_str (member "kind" j)) kind_of_string,
      Json.(to_str (member "label" j)),
      hex "structure", hex "counters", hex "bank", hex "seeds", hex "chain" )
  with
  | ( Some seq, Some kind, Some label,
      Some structure, Some counters_digest, Some bank, Some seeds,
      Some chain ) ->
    Some
      { seq; kind; label; structure; counters_digest; bank; seeds; chain;
        counters = Json.counters "counter_values" j }
  | _ -> None

(* Append-only stream: a run that died mid-write leaves a torn final
   line, which [Json.load_lines] skips. *)
let load path = Result.map (List.filter_map record_of_json) (Json.load_lines path)

let bank_components () =
  match state.bank_source with None -> (0L, 0L) | Some f -> f ()

let emit kind label structure counters =
  let counters_digest = counters_hash counters in
  let bank, seeds = bank_components () in
  let kind_tag = match kind with Pass -> 1L | Merge -> 2L in
  let chain =
    H.mix2
      (H.mix2
         (H.mix2 (H.mix2 state.chain (hash_string label)) kind_tag)
         (H.mix2 structure counters_digest))
      (H.mix2 bank seeds)
  in
  let r =
    { seq = state.seq; kind; label; structure; counters_digest; bank; seeds;
      chain; counters }
  in
  state.seq <- state.seq + 1;
  state.chain <- chain;
  state.records <- r :: state.records;
  (* Bumped after the digest is taken, so the record's own counter is
     not part of its delta — consistently, hence deterministically. *)
  Metrics.incr m_records;
  (match state.out with
  | None -> ()
  | Some oc ->
    output_string oc (record_to_json r);
    output_char oc '\n';
    flush oc);
  r

(* Nonzero counter deltas since [enable], sorted by name. *)
let counters_since_enable () =
  Metrics.activity state.baseline (Metrics.snapshot ())
  |> List.filter_map (fun (k, v, _) -> if v <> 0 then Some (k, v) else None)

(* --- lifecycle --- *)

let reset () =
  state.records <- [];
  state.seq <- 0;
  state.chain <- chain_init;
  state.baseline <- Metrics.snapshot ()

let close_out () =
  match state.out with
  | None -> ()
  | Some oc ->
    close_out_noerr oc;
    state.out <- None

let enable ?path () =
  reset ();
  close_out ();
  (match path with
  | None -> ()
  | Some p -> state.out <- Some (open_out p));
  state.baseline <- Metrics.snapshot ();
  state.enabled <- true

let disable () =
  state.enabled <- false;
  close_out ();
  state.bank_source <- None;
  reset ()

let set_bank_source f = state.bank_source <- f

(* --- boundaries --- *)

(* Labels come from the open pass frames of the one span stack. *)
let pass_path () =
  match Span_stack.names ~passes_only:true () with
  | [] -> "?"
  | names -> String.concat "/" names

let record_pass ~structure =
  if not state.enabled then 0L
  else (emit Pass (pass_path ()) structure (counters_since_enable ())).chain

let record_merge ~engine ~partition ~structure =
  if state.enabled then begin
    let inner =
      match Span_stack.passes () with [] -> engine | f :: _ -> f.name
    in
    let structure =
      match injection () with
      | Some (pass, n)
        when n = partition && (pass = inner || pass = engine) ->
        Metrics.incr m_injected;
        Int64.logxor structure inject_mask
      | _ -> structure
    in
    let prefix =
      match Span_stack.passes () with [] -> "" | _ -> pass_path () ^ "/"
    in
    let label = Printf.sprintf "%s%s-partition-%d" prefix engine partition in
    ignore (emit Merge label structure (counters_since_enable ()))
  end

let records () = List.rev state.records
