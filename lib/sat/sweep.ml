module Aig = Sbm_aig.Aig
module Sim = Sbm_aig.Sim
module Rng = Sbm_util.Rng
module M = Sbm_obs.Metrics

(* Signature of a node across simulation rounds, canonicalized so a
   node and its complement land in the same class: if the first bit is
   set, the whole signature is complemented (phase recorded). *)
let signatures aig rng =
  let n = Aig.num_nodes aig in
  let sigs = Array.make n [] in
  for _ = 1 to Sim.default_words do
    let values = Sim.simulate aig (Sim.random_inputs aig rng) in
    for v = 0 to n - 1 do
      sigs.(v) <- values.(v) :: sigs.(v)
    done
  done;
  Array.map
    (fun words ->
      match words with
      | [] -> ([], false)
      | w :: _ ->
        let phase = Int64.logand w 1L = 1L in
        let canon = if phase then List.map Int64.lognot words else words in
        (canon, phase))
    sigs

(* Conflict budget of one miter query; an [Unknown] pair is not merged. *)
let conflict_limit = 1000

let run ?on_cex aig =
  let aig, _ = Aig.compact aig in
  let rng = Rng.create 0x5eed in
  let sigs = signatures aig rng in
  let solver = Solver.create () in
  let sat_calls = ref 0 in
  let vars = Tseitin.encode solver aig in
  (* A [Sat] answer is a counterexample: the pair looked equivalent to
     the signatures (same class) but a concrete input assignment
     distinguishes it. Feed it to the subscriber (the simulation
     prefilter folds it into its pattern bank so the same false
     positive never survives simulation again). *)
  let cex result =
    match (on_cex, result) with
    | Some f, Solver.Sat -> f (Tseitin.model_inputs solver vars aig)
    | _ -> ()
  in
  (* Group live AND nodes and PIs by canonical signature. *)
  let classes : (int64 list, (int * bool) list) Hashtbl.t = Hashtbl.create 256 in
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_and aig v || Aig.is_input aig v then begin
        let canon, phase = sigs.(v) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt classes canon) in
        Hashtbl.replace classes canon ((v, phase) :: prev)
      end)
    order;
  let merged = ref 0 in
  Hashtbl.iter
    (fun _ members ->
      match List.rev members with
      | [] | [ _ ] -> ()
      | (repr, rphase) :: rest ->
        (* Try to merge every later member into the earliest one. *)
        List.iter
          (fun (v, vphase) ->
            if Aig.is_and aig v && not (Aig.is_dead aig v) && not (Aig.is_dead aig repr)
            then begin
              let compl = rphase <> vphase in
              let a = vars.(repr) and b = vars.(v) in
              if a > 0 && b > 0 then begin
                let b' = if compl then -b else b in
                (* Equivalent iff (a & ~b') and (~a & b') are both
                   unsatisfiable. *)
                incr sat_calls;
                let r1 = Solver.solve ~assumptions:[ a; -b' ] ~conflict_limit solver in
                cex r1;
                let r2 =
                  if r1 = Solver.Unsat then begin
                    incr sat_calls;
                    let r = Solver.solve ~assumptions:[ -a; b' ] ~conflict_limit solver in
                    cex r;
                    r
                  end
                  else Solver.Sat
                in
                if
                  r1 = Solver.Unsat && r2 = Solver.Unsat
                  && not (Aig.in_tfi aig ~node:v ~root:repr)
                then begin
                  Aig.replace aig v (Aig.lit_of repr compl);
                  incr merged
                end
              end
            end)
          rest)
    classes;
  (let module S = Sbm_obs.Stream in
   if S.recorder_on () then
     S.append ~engine:"sat" ~id:"sweep"
       ~metrics:
         [ ("classes", Hashtbl.length classes); ("sat_calls", !sat_calls);
           ("merged", !merged); ("restarts", Solver.num_restarts solver) ]
       "sweep done");
  Sbm_obs.poll ();
  M.add Sat_metrics.sweep_classes (Hashtbl.length classes);
  M.add Sat_metrics.sweep_sat_calls !sat_calls;
  M.add Sat_metrics.sweep_merged !merged;
  M.add Sat_metrics.conflicts (Solver.num_conflicts solver);
  M.add Sat_metrics.decisions (Solver.num_decisions solver);
  M.add Sat_metrics.propagations (Solver.num_propagations solver);
  M.add Sat_metrics.restarts (Solver.num_restarts solver);
  let swept, _ = Aig.compact aig in
  (swept, !merged)
