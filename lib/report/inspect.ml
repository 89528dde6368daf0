module Pm = Sbm_obs.Postmortem
module S = Sbm_obs.Stream

let pp_metrics ppf = function
  | [] -> ()
  | metrics ->
    Fmt.pf ppf "  {%a}"
      (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v))
      metrics

(* Timestamp column, from a time since the stream opened. Default: a
   delta from run start ("+123.4 ms", the dump's t_ms). --abs: the
   absolute monotonic clock in ns, t0_ns + the time. Dumps predating
   t0_ns fall back to deltas even under --abs. *)
let pp_stamp ~abs t0_ns ppf t_ns =
  match t0_ns with
  | Some t0 when abs -> Fmt.pf ppf "[%18Ld ns]" (Int64.add t0 t_ns)
  | _ -> Fmt.pf ppf "[%+10.1f ms]" (Json.ms_of_ns t_ns)

let pp ?(last = 20) ?(abs = false) ppf (d : Pm.dump) =
  let stamp = pp_stamp ~abs d.t0_ns in
  let pp_event ppf (e : S.record) =
    Fmt.pf ppf "  %a %-5s %-10s %-14s %s%a@." stamp e.t_ns
      (String.uppercase_ascii (S.severity_to_string e.severity))
      e.engine e.id e.message pp_metrics e.metrics
  in
  Fmt.pf ppf "post-mortem dump (version %d)@." d.version;
  Fmt.pf ppf "  reason:  %s@." d.reason;
  Fmt.pf ppf "  pid:     %d   elapsed: %.1f s@." d.pid (d.elapsed_ms /. 1000.0);
  Fmt.pf ppf "  events:  %d recorded, %d overwritten@." d.recorded d.dropped;
  Fmt.pf ppf "@.open spans at crash (outermost first):@.";
  if d.span_stack = [] then Fmt.pf ppf "  (none)@."
  else
    List.iter
      (fun (f : Pm.frame) ->
        Fmt.pf ppf "  %-32s opened at %a@." f.name stamp
          (Json.ns_of_ms f.opened_ms))
      d.span_stack;
  (* Verdicts (WARN = note, ERROR = abort) are listed whole, the rest
     of the timeline by its tail. *)
  let verdicts, others = List.partition S.is_verdict d.events in
  Fmt.pf ppf "@.watchdog verdicts:@.";
  if verdicts = [] then Fmt.pf ppf "  (none)@."
  else List.iter (pp_event ppf) verdicts;
  let total = List.length others in
  let shown = min last total in
  Fmt.pf ppf "@.timeline (last %d of %d other buffered events):@." shown total;
  if total = 0 then Fmt.pf ppf "  (none)@."
  else List.iteri (fun i e -> if i >= total - shown then pp_event ppf e) others;
  let live = List.filter (fun (_, v) -> v <> 0) d.counters in
  if live <> [] then begin
    Fmt.pf ppf "@.counters:@.";
    List.iter (fun (k, v) -> Fmt.pf ppf "  %-32s %12d@." k v) live
  end
