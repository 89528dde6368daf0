module Snapshot = Sbm_obs.Snapshot

(* --- diffing --- *)

type tolerance = { qor_pct : float; time_pct : float }

let default_tolerance = { qor_pct = 2.0; time_pct = 25.0 }

type verdict = Improved | Unchanged | Tolerated | Regressed

let severity = function
  | Improved -> 0
  | Unchanged -> 1
  | Tolerated -> 2
  | Regressed -> 3

let worst a b = if severity a >= severity b then a else b

type delta = {
  metric : string;
  old_value : float;
  new_value : float;
  pct : float;
  verdict : verdict;
}

type counter_delta = { counter : string; old_count : int; new_count : int }

type row = {
  bench : string;
  size_in : (int * int) option;
      (* input node counts (old, new) when both snapshots recorded
         them — informational, never gated *)
  deltas : delta list;
  counter_deltas : counter_delta list;
  verdict : verdict;
}

type t = {
  rows : row list;
  only_old : string list;
  only_new : string list;
  verdict : verdict;
}

let classify ~tol ~old_value ~new_value metric =
  let denom = if Float.abs old_value < 1e-9 then 1.0 else Float.abs old_value in
  let pct = 100.0 *. (new_value -. old_value) /. denom in
  let verdict =
    if new_value < old_value then Improved
    else if new_value = old_value then Unchanged
    else if pct <= tol then Tolerated
    else Regressed
  in
  { metric; old_value; new_value; pct; verdict }

let counter_changes a b =
  List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  |> List.filter_map (fun k ->
         let va = List.assoc_opt k a and vb = List.assoc_opt k b in
         if va = vb then None else Some (k, va, vb))

(* A counter missing on one side reads as 0 there. *)
let counter_deltas o n =
  List.filter_map
    (fun (counter, o, n) ->
      let old_count = Option.value ~default:0 o
      and new_count = Option.value ~default:0 n in
      if old_count = new_count then None
      else Some { counter; old_count; new_count })
    (counter_changes o n)

let diff ?(tolerance = default_tolerance) ?(ignore_time = false)
    (o : Snapshot.t) (n : Snapshot.t) =
  let row (oe : Snapshot.entry) (ne : Snapshot.entry) =
    let qor metric old_value new_value =
      classify ~tol:tolerance.qor_pct ~old_value ~new_value metric
    in
    let deltas =
      [
        qor "size" (float_of_int oe.qor.size) (float_of_int ne.qor.size);
        qor "depth" (float_of_int oe.qor.depth) (float_of_int ne.qor.depth);
        qor "luts" (float_of_int oe.qor.luts) (float_of_int ne.qor.luts);
        qor "levels" (float_of_int oe.qor.levels) (float_of_int ne.qor.levels);
      ]
      @
      (* QoR-only gating: [ignore_time] drops the wall row entirely —
         no verdict, no speedup ratio — so the output is stable across
         machines. *)
      if ignore_time then []
      else
        [
          classify ~tol:tolerance.time_pct ~old_value:oe.wall_ms
            ~new_value:ne.wall_ms "wall_ms";
        ]
    in
    {
      bench = oe.bench;
      size_in =
        (if oe.size_before >= 0 && ne.size_before >= 0 then
           Some (oe.size_before, ne.size_before)
         else None);
      deltas;
      counter_deltas = counter_deltas oe.counters ne.counters;
      verdict =
        List.fold_left (fun acc (d : delta) -> worst acc d.verdict) Improved deltas;
    }
  in
  let rows =
    List.filter_map
      (fun oe ->
        Option.map (row oe) (Snapshot.find n oe.Snapshot.bench))
      o.entries
  in
  let missing_from other = fun (e : Snapshot.entry) -> Snapshot.find other e.bench = None in
  let only_old = List.filter (missing_from n) o.entries |> List.map (fun e -> e.Snapshot.bench) in
  let only_new = List.filter (missing_from o) n.entries |> List.map (fun e -> e.Snapshot.bench) in
  let verdict =
    let base = if only_old <> [] then Regressed else Improved in
    List.fold_left (fun acc (r : row) -> worst acc r.verdict) base rows
  in
  { rows; only_old; only_new; verdict }

(* --- rendering --- *)

let verdict_tag = function
  | Improved -> "improved"
  | Unchanged -> "="
  | Tolerated -> "ok"
  | Regressed -> "REGRESSED"

let pp_value ppf (metric, v) =
  if metric = "wall_ms" then Fmt.pf ppf "%10.1f" v
  else Fmt.pf ppf "%10.0f" v

(* Wall-time rows carry an old/new speedup ratio (>1 = the new
   snapshot is faster), printed even when time regressions are
   tolerance-exempt: perf comparisons stay self-documenting under
   [--ignore-time]. *)
let pp_speedup ppf (dl : delta) =
  if dl.metric = "wall_ms" && dl.new_value > 0.0 then
    Fmt.pf ppf "%7.2fx" (dl.old_value /. dl.new_value)
  else Fmt.pf ppf "%8s" ""

let pp ppf d =
  (* No wall rows (diff ~ignore_time) => no speedup column at all. *)
  let has_wall =
    List.exists
      (fun (r : row) ->
        List.exists (fun (dl : delta) -> dl.metric = "wall_ms") r.deltas)
      d.rows
  in
  if has_wall then
    Fmt.pf ppf "%-12s %-8s %10s %10s %8s %8s  %s@." "benchmark" "metric" "old"
      "new" "delta" "speedup" "verdict"
  else
    Fmt.pf ppf "%-12s %-8s %10s %10s %8s  %s@." "benchmark" "metric" "old"
      "new" "delta" "verdict";
  List.iter
    (fun (r : row) ->
      (* Input node counts first, when recorded: the effective bench
         scale the QoR rows below were measured at. Informational —
         no verdict, never gated. *)
      (match r.size_in with
      | Some (o, n) when o = n ->
        Fmt.pf ppf "%-12s %-8s %10d %10s@." r.bench "size_in" o "(input)"
      | Some (o, n) ->
        Fmt.pf ppf "%-12s %-8s %10d %10d  (input; scales differ)@." r.bench
          "size_in" o n
      | None -> ());
      List.iter
        (fun dl ->
          if has_wall then
            Fmt.pf ppf "%-12s %-8s %a %a %+7.1f%% %a  %s@." r.bench dl.metric
              pp_value (dl.metric, dl.old_value) pp_value
              (dl.metric, dl.new_value) dl.pct pp_speedup dl
              (verdict_tag dl.verdict)
          else
            Fmt.pf ppf "%-12s %-8s %a %a %+7.1f%%  %s@." r.bench dl.metric
              pp_value (dl.metric, dl.old_value) pp_value
              (dl.metric, dl.new_value) dl.pct (verdict_tag dl.verdict))
        r.deltas)
    d.rows;
  List.iter (fun b -> Fmt.pf ppf "%-12s dropped from new snapshot: REGRESSED@." b)
    d.only_old;
  List.iter (fun b -> Fmt.pf ppf "%-12s only in new snapshot@." b) d.only_new;
  let count v =
    List.length (List.filter (fun (r : row) -> r.verdict = v) d.rows)
  in
  Fmt.pf ppf "summary: %d benchmarks — %d improved, %d unchanged, %d within tolerance, %d regressed%s@."
    (List.length d.rows) (count Improved) (count Unchanged) (count Tolerated)
    (count Regressed)
    (if d.only_old <> [] then Fmt.str ", %d dropped" (List.length d.only_old)
     else "")

let pp_counters ppf d =
  List.iter
    (fun (r : row) ->
      if r.counter_deltas <> [] then begin
        Fmt.pf ppf "%s:@." r.bench;
        List.iter
          (fun c ->
            Fmt.pf ppf "  %-32s %10d -> %-10d (%+d)@." c.counter c.old_count
              c.new_count (c.new_count - c.old_count))
          r.counter_deltas
      end)
    d.rows

let exit_code d = if d.verdict = Regressed then 1 else 0

(* --- machine-readable output (sbm diff --json) --- *)

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Tolerated -> "tolerated"
  | Regressed -> "regressed"

let esc = Json.escape

(* Shared by [to_json] and [passes_to_json]. *)
let delta_json (dl : delta) =
  Printf.sprintf
    "{\"metric\":\"%s\",\"old\":%g,\"new\":%g,\"pct\":%.3f,\"verdict\":\"%s\"}"
    (esc dl.metric) dl.old_value dl.new_value dl.pct
    (verdict_to_string dl.verdict)

let counter_json (c : counter_delta) =
  Printf.sprintf "{\"counter\":\"%s\",\"old\":%d,\"new\":%d}"
    (esc c.counter) c.old_count c.new_count

let to_json d =
  let row_json (r : row) =
    let size_in =
      match r.size_in with
      | Some (o, n) -> Printf.sprintf "\"size_in\":{\"old\":%d,\"new\":%d}," o n
      | None -> ""
    in
    Printf.sprintf
      "{\"bench\":\"%s\",%s\"verdict\":\"%s\",\"deltas\":[%s],\"counters\":[%s]}"
      (esc r.bench) size_in
      (verdict_to_string r.verdict)
      (String.concat "," (List.map delta_json r.deltas))
      (String.concat "," (List.map counter_json r.counter_deltas))
  in
  let strings l =
    String.concat "," (List.map (fun s -> "\"" ^ esc s ^ "\"") l)
  in
  Printf.sprintf
    "{\"verdict\":\"%s\",\"rows\":[%s],\"only_old\":[%s],\"only_new\":[%s]}"
    (verdict_to_string d.verdict)
    (String.concat "," (List.map row_json d.rows))
    (strings d.only_old) (strings d.only_new)

(* --- per-pass differential forensics (sbm diff --per-pass) --- *)

module Ledger = Sbm_obs.Ledger

type pass_row = {
  path : string;
  index : int;
  deltas : delta list;
  counter_deltas : counter_delta list;
  verdict : verdict;
}

type bench_passes = {
  bench : string;
  rows : pass_row list;
  note : string option;  (* alignment outcome when rows are absent *)
  verdict : verdict;
}

type passes_diff = { benches : bench_passes list; verdict : verdict }

(* Alignment contract: pass sequences are compared positionally and
   must agree on (index, path) — a flow whose pass sequence changed is
   not comparable pass-by-pass, so any mismatch is Regressed (the
   conservative verdict: a silent realignment could hide the very
   pass that introduced a delta). An old snapshot without ledger rows
   predates the ledger and is tolerated. *)
let diff_bench_passes ~tolerance ~ignore_time (oe : Snapshot.entry)
    (ne : Snapshot.entry) : bench_passes =
  let bench = oe.Snapshot.bench in
  match (oe.passes, ne.passes) with
  | [], [] ->
    { bench; rows = []; note = Some "no ledger rows"; verdict = Unchanged }
  | [], _ :: _ ->
    {
      bench;
      rows = [];
      note = Some "old snapshot predates the ledger (no passes array)";
      verdict = Unchanged;
    }
  | _ :: _, [] ->
    {
      bench;
      rows = [];
      note = Some "ledger rows missing from new snapshot";
      verdict = Regressed;
    }
  | op, np when List.length op <> List.length np ->
    {
      bench;
      rows = [];
      note =
        Some
          (Printf.sprintf "pass sequence mismatch: %d passes vs %d"
             (List.length op) (List.length np));
      verdict = Regressed;
    }
  | op, np -> (
    match
      List.find_opt
        (fun ((o : Ledger.row), (n : Ledger.row)) ->
          o.Ledger.path <> n.Ledger.path)
        (List.combine op np)
    with
    | Some (o, n) ->
      {
        bench;
        rows = [];
        note =
          Some
            (Printf.sprintf
               "pass sequence mismatch at index %d: %S vs %S" o.Ledger.index
               o.Ledger.path n.Ledger.path);
        verdict = Regressed;
      }
    | None ->
      let row ((o : Ledger.row), (n : Ledger.row)) : pass_row =
        let qor metric old_value new_value =
          classify ~tol:tolerance.qor_pct ~old_value ~new_value metric
        in
        let fi = float_of_int in
        let deltas =
          [
            qor "size" (fi o.Ledger.size_after) (fi n.Ledger.size_after);
            qor "depth" (fi o.Ledger.depth_after) (fi n.Ledger.depth_after);
          ]
          @ (if o.Ledger.luts >= 0 && n.Ledger.luts >= 0 then
               [ qor "luts" (fi o.Ledger.luts) (fi n.Ledger.luts) ]
             else [])
          @ (if o.Ledger.levels >= 0 && n.Ledger.levels >= 0 then
               [ qor "levels" (fi o.Ledger.levels) (fi n.Ledger.levels) ]
             else [])
          @
          if ignore_time then []
          else
            [
              classify ~tol:tolerance.time_pct
                ~old_value:(Int64.to_float o.Ledger.wall_ns /. 1e6)
                ~new_value:(Int64.to_float n.Ledger.wall_ns /. 1e6)
                "wall_ms";
            ]
        in
        {
          path = n.Ledger.path;
          index = n.Ledger.index;
          deltas;
          counter_deltas = counter_deltas o.Ledger.counters n.Ledger.counters;
          verdict =
            List.fold_left
              (fun acc (d : delta) -> worst acc d.verdict)
              Improved deltas;
        }
      in
      let rows = List.map row (List.combine op np) in
      {
        bench;
        rows;
        note = None;
        verdict =
          List.fold_left
            (fun acc (r : pass_row) -> worst acc r.verdict)
            Improved rows;
      })

let diff_passes ?(tolerance = default_tolerance) ?(ignore_time = false)
    (o : Snapshot.t) (n : Snapshot.t) =
  let benches =
    List.filter_map
      (fun oe ->
        Option.map
          (diff_bench_passes ~tolerance ~ignore_time oe)
          (Snapshot.find n oe.Snapshot.bench))
      o.entries
  in
  {
    benches;
    verdict =
      List.fold_left
        (fun acc (b : bench_passes) -> worst acc b.verdict)
        Improved benches;
  }

(* The forensic rendering: every aligned pass whose verdict is not
   Unchanged gets its changed metrics printed, Regressed passes also
   get their counter deltas (the "why"), and the summary names each
   regressing pass so CI logs localize a QoR break without opening
   the snapshots. *)
let pp_passes ppf (d : passes_diff) =
  let total = ref 0 and shown = ref 0 in
  List.iter
    (fun (b : bench_passes) ->
      (match b.note with
      | Some note ->
        Fmt.pf ppf "%-12s %s: %s@." b.bench (verdict_tag b.verdict) note
      | None -> ());
      List.iter
        (fun (r : pass_row) ->
          incr total;
          if r.verdict <> Unchanged then begin
            incr shown;
            List.iter
              (fun (dl : delta) ->
                if dl.verdict <> Unchanged then
                  Fmt.pf ppf "%-12s %-32s %-8s %a %a %+7.1f%%  %s@." b.bench
                    r.path dl.metric pp_value (dl.metric, dl.old_value)
                    pp_value (dl.metric, dl.new_value) dl.pct
                    (verdict_tag dl.verdict))
              r.deltas;
            if r.verdict = Regressed then
              List.iter
                (fun (c : counter_delta) ->
                  Fmt.pf ppf "%-12s %-32s   %-32s %10d -> %-10d (%+d)@."
                    b.bench r.path c.counter c.old_count c.new_count
                    (c.new_count - c.old_count))
                r.counter_deltas
          end)
        b.rows)
    d.benches;
  let regressing =
    List.concat_map
      (fun (b : bench_passes) ->
        List.filter_map
          (fun (r : pass_row) ->
            if r.verdict = Regressed then Some (b.bench ^ ":" ^ r.path)
            else None)
          b.rows)
      d.benches
  in
  Fmt.pf ppf
    "per-pass summary: %d aligned passes, %d changed, overall %s@." !total
    !shown
    (verdict_tag d.verdict);
  if regressing <> [] then
    Fmt.pf ppf "regressing passes: %s@." (String.concat ", " regressing);
  List.iter
    (fun (b : bench_passes) ->
      if b.note <> None && b.verdict = Regressed then
        Fmt.pf ppf "regressing bench: %s (%s)@." b.bench
          (Option.value ~default:"" b.note))
    d.benches

let passes_exit_code (d : passes_diff) =
  if d.verdict = Regressed then 1 else 0

let passes_to_json (d : passes_diff) =
  let pass_json (r : pass_row) =
    Printf.sprintf
      "{\"path\":\"%s\",\"index\":%d,\"verdict\":\"%s\",\"deltas\":[%s],\"counters\":[%s]}"
      (esc r.path) r.index
      (verdict_to_string r.verdict)
      (String.concat "," (List.map delta_json r.deltas))
      (String.concat "," (List.map counter_json r.counter_deltas))
  in
  let bench_json (b : bench_passes) =
    Printf.sprintf
      "{\"bench\":\"%s\",\"verdict\":\"%s\"%s,\"passes\":[%s]}"
      (esc b.bench)
      (verdict_to_string b.verdict)
      (match b.note with
      | Some note -> Printf.sprintf ",\"note\":\"%s\"" (esc note)
      | None -> "")
      (String.concat "," (List.map pass_json b.rows))
  in
  Printf.sprintf "{\"verdict\":\"%s\",\"benches\":[%s]}"
    (verdict_to_string d.verdict)
    (String.concat "," (List.map bench_json d.benches))
