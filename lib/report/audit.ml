(* Divergence auditor over determinism audit trails (contract in the
   .mli). Because every link's chain commits to the whole prefix, the
   first record that differs is the first diverging boundary. *)

module S = Sbm_obs.Stream

let kind (l : S.link) = S.kind_to_string l.boundary

(* --- alignment --- *)

type component = Label | Structure | Counters | Bank | Seeds

let component_to_string = function
  | Label -> "label"
  | Structure -> "structure"
  | Counters -> "counters"
  | Bank -> "bank"
  | Seeds -> "seeds"

type divergence = {
  index : int;
  a : S.link option;
  b : S.link option;
  components : component list;
  counter_diffs : (string * int option * int option) list;
}

type outcome = Identical of int | Diverged of divergence

let compare_trails (ta : S.link list) (tb : S.link list) =
  let rec go i ta tb =
    match (ta, tb) with
    | [], [] -> Identical i
    | (la : S.link) :: ta', (lb : S.link) :: tb' -> (
      match
        List.filter_map
          (fun (c, eq) -> if eq then None else Some c)
          [ (Label, la.label = lb.label && la.boundary = lb.boundary);
            (Structure, la.structure = lb.structure);
            (Counters, la.counters_digest = lb.counters_digest);
            (Bank, la.bank = lb.bank); (Seeds, la.seeds = lb.seeds) ]
      with
      | [] -> go (i + 1) ta' tb'
      | components ->
        let counter_diffs =
          if List.mem Counters components then
            Report.counter_changes la.counters lb.counters
          else []
        in
        Diverged { index = i; a = Some la; b = Some lb; components;
                   counter_diffs })
    | _ ->
      Diverged { index = i; a = List.nth_opt ta 0; b = List.nth_opt tb 0;
                 components = []; counter_diffs = [] }
  in
  go 0 ta tb

let exit_code = function Identical _ -> 0 | Diverged _ -> 1

(* One-line localization for test failure messages. *)
let describe (d : divergence) =
  match (d.a, d.b) with
  | Some a, Some b when a.label = b.label ->
    Printf.sprintf "first diverging boundary: %s (%s record %d; %s)"
      a.label (kind a) d.index
      (String.concat ", " (List.map component_to_string d.components))
  | Some a, Some b ->
    Printf.sprintf
      "trails disagree on the boundary sequence at record %d: %s vs %s"
      d.index a.label b.label
  | Some r, None | None, Some r ->
    let ended, other = if d.b = None then ("B", "A") else ("A", "B") in
    Printf.sprintf "trail %s ends at record %d; trail %s continues with %s"
      ended d.index other r.label
  | None, None -> "empty divergence (bug)"

(* --- report rendering --- *)

let pp_record_line fmt side (l : S.link) =
  Format.fprintf fmt "  %s: %-5s %s@,     structure=%016Lx counters=%016Lx bank=%016Lx seeds=%016Lx chain=%016Lx@,"
    side (kind l) l.label l.structure l.counters_digest l.bank l.seeds l.chain

let pp ?(name_a = "A") ?(name_b = "B") fmt outcome =
  Format.pp_open_vbox fmt 0;
  (match outcome with
  | Identical n ->
    Format.fprintf fmt "trails identical: %d records (%s = %s)@," n name_a
      name_b
  | Diverged d ->
    Format.fprintf fmt "trails diverge at record %d@," d.index;
    (match (d.a, d.b) with
    | Some a, Some b when a.label = b.label ->
      Format.fprintf fmt "  boundary: %s (%s)@," a.label (kind a);
      Format.fprintf fmt "  diverged components: %s@,"
        (String.concat ", " (List.map component_to_string d.components))
    | _ ->
      Format.fprintf fmt "  the boundary sequences themselves disagree@,");
    Option.iter (fun r -> pp_record_line fmt name_a r) d.a;
    Option.iter (fun r -> pp_record_line fmt name_b r) d.b;
    (match (d.a, d.b) with
    | Some _, None | None, Some _ ->
      Format.fprintf fmt "  %s has no record %d: its trail ended early@,"
        (if d.b = None then name_b else name_a)
        d.index
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
