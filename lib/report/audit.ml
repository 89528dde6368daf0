(* Divergence auditor over determinism audit trails (sbm audit).

   Two fingerprint trails (Fingerprint JSONL streams, or in-process
   record lists) are aligned positionally and scanned for the first
   record where any deterministic component differs. Because every
   record's chain commits to the whole prefix, the first difference
   IS the first diverging boundary: everything before it is equal
   component-by-component, so the report localizes a nondeterminism
   bug to the exact pass or partition-merge boundary where state
   first disagreed, and names which component (structure vs counters
   vs bank vs seeds) carried the disagreement. When the counter delta
   vectors are present the drill-down goes one level further and
   names the individual counters. *)

module FP = Sbm_obs.Fingerprint

(* --- alignment --- *)

type component = Label | Structure | Counters | Bank | Seeds

let component_to_string = function
  | Label -> "label"
  | Structure -> "structure"
  | Counters -> "counters"
  | Bank -> "bank"
  | Seeds -> "seeds"

type divergence = {
  index : int;  (** position of the first diverging record *)
  a : FP.record option;  (** [None] = trail A ended before [index] *)
  b : FP.record option;
  components : component list;  (** which fields disagree (both present) *)
  counter_diffs : (string * int option * int option) list;
      (** per-counter drill-down when the counter vectors are present *)
}

type outcome = Identical of int | Diverged of divergence

let record_components (a : FP.record) (b : FP.record) =
  List.filter_map
    (fun (c, eq) -> if eq then None else Some c)
    [
      (Label, a.FP.label = b.FP.label && a.FP.kind = b.FP.kind);
      (Structure, a.FP.structure = b.FP.structure);
      (Counters, a.FP.counters_digest = b.FP.counters_digest);
      (Bank, a.FP.bank = b.FP.bank);
      (Seeds, a.FP.seeds = b.FP.seeds);
    ]

let compare_trails (ta : FP.record list) (tb : FP.record list) =
  let rec go i ta tb =
    match (ta, tb) with
    | [], [] -> Identical i
    | a :: _, [] -> Diverged { index = i; a = Some a; b = None;
                               components = []; counter_diffs = [] }
    | [], b :: _ -> Diverged { index = i; a = None; b = Some b;
                               components = []; counter_diffs = [] }
    | a :: ta', b :: tb' -> (
      match record_components a b with
      | [] -> go (i + 1) ta' tb'
      | components ->
        let counter_diffs =
          if List.mem Counters components then
            Report.counter_changes a.FP.counters b.FP.counters
          else []
        in
        Diverged { index = i; a = Some a; b = Some b; components;
                   counter_diffs })
  in
  go 0 ta tb

let exit_code = function Identical _ -> 0 | Diverged _ -> 1

(* One-line localization for test failure messages. *)
let describe (d : divergence) =
  match (d.a, d.b) with
  | Some a, Some b when a.FP.label = b.FP.label ->
    Printf.sprintf "first diverging boundary: %s (%s record %d; %s)"
      a.FP.label (FP.kind_to_string a.FP.kind) d.index
      (String.concat ", " (List.map component_to_string d.components))
  | Some a, Some b ->
    Printf.sprintf
      "trails disagree on the boundary sequence at record %d: %s vs %s"
      d.index a.FP.label b.FP.label
  | Some a, None ->
    Printf.sprintf "trail B ends at record %d; trail A continues with %s"
      d.index a.FP.label
  | None, Some b ->
    Printf.sprintf "trail A ends at record %d; trail B continues with %s"
      d.index b.FP.label
  | None, None -> "empty divergence (bug)"

(* --- report rendering --- *)

let pp_record_line fmt side (r : FP.record) =
  Format.fprintf fmt "  %s: %-5s %s@,     structure=%016Lx counters=%016Lx bank=%016Lx seeds=%016Lx chain=%016Lx@,"
    side (FP.kind_to_string r.FP.kind) r.FP.label r.FP.structure
    r.FP.counters_digest r.FP.bank r.FP.seeds r.FP.chain

let pp ?(name_a = "A") ?(name_b = "B") fmt outcome =
  Format.pp_open_vbox fmt 0;
  (match outcome with
  | Identical n ->
    Format.fprintf fmt "trails identical: %d records (%s = %s)@," n name_a
      name_b
  | Diverged d ->
    Format.fprintf fmt "trails diverge at record %d@," d.index;
    (match (d.a, d.b) with
    | Some a, Some b when a.FP.label = b.FP.label ->
      Format.fprintf fmt "  boundary: %s (%s)@," a.FP.label
        (FP.kind_to_string a.FP.kind);
      Format.fprintf fmt "  diverged components: %s@,"
        (String.concat ", " (List.map component_to_string d.components))
    | _ ->
      Format.fprintf fmt "  the boundary sequences themselves disagree@,");
    Option.iter (fun r -> pp_record_line fmt name_a r) d.a;
    Option.iter (fun r -> pp_record_line fmt name_b r) d.b;
    (match d.a with
    | Some _ when d.b = None ->
      Format.fprintf fmt "  %s has no record %d: its trail ended early@,"
        name_b d.index
    | _ -> ());
    (match d.b with
    | Some _ when d.a = None ->
      Format.fprintf fmt "  %s has no record %d: its trail ended early@,"
        name_a d.index
    | _ -> ());
    if d.counter_diffs <> [] then begin
      Format.fprintf fmt "  diverging counters:@,";
      List.iter
        (fun (k, va, vb) ->
          let s = function None -> "-" | Some v -> string_of_int v in
          Format.fprintf fmt "    %-40s %s=%s %s=%s@," k name_a (s va)
            name_b (s vb))
        d.counter_diffs
    end;
    (* Everything after the first divergence is noise: the chain has
       already forked, so later records necessarily differ too. *)
    Format.fprintf fmt
      "  (all earlier records agree; later differences are downstream of \
       this one)@,");
  Format.pp_close_box fmt ()
