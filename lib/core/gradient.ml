module Aig = Sbm_aig.Aig
module Obs = Sbm_obs
module Partition = Sbm_partition.Partition
module M = Sbm_obs.Metrics

let m_move_cost =
  M.counter ~engine:"gradient" ~unit_:"cost" "move.cost"
    "summed cost of attempted gradient moves"

let m_move_gain =
  M.counter ~engine:"gradient" ~unit_:"nodes" "move.gain"
    "summed size gain of attempted gradient moves"

let m_gradient_aborts =
  M.counter ~engine:"watchdog" ~unit_:"aborts" "watchdog.gradient_aborts"
    "gradient runs cut short by a watchdog abort"

let m_budget_forfeited =
  M.counter ~engine:"gradient" ~unit_:"moves" "gradient.budget_forfeited"
    "move budget remaining when a watchdog abort ended the run"

let m_moves_tried =
  M.counter ~engine:"gradient" ~unit_:"moves" "gradient.moves_tried"
    "gradient moves attempted"

let m_moves_gained =
  M.counter ~engine:"gradient" ~unit_:"moves" "gradient.moves_gained"
    "gradient moves accepted with positive gain"

let m_gain =
  M.counter ~engine:"gradient" ~unit_:"nodes" "gradient.gain"
    "AIG nodes saved by accepted gradient moves"

let m_budget_spent =
  M.counter ~engine:"gradient" ~unit_:"moves" "gradient.budget_spent"
    "move budget consumed"

let m_budget_extensions =
  M.counter ~engine:"gradient" ~unit_:"extensions"
    "gradient.budget_extensions"
    "budget extensions granted while the gradient stayed promising"

let m_rounds =
  M.counter ~engine:"gradient" ~unit_:"rounds" "gradient.rounds"
    "gradient rounds executed"

type selection = Waterfall | Parallel

type config = {
  budget : int;
  min_gradient : float;
  selection : selection;
  prefilter : Prefilter.bank option;
}

let default_config =
  {
    budget = 100;
    min_gradient = 0.03;
    selection = Waterfall;
    prefilter = None;
  }

(* Gradient window: the gain gradient is taken over the last [k]
   attempted moves (paper default). *)
let k = 20

type stats = {
  moves_tried : int;
  moves_gained : int;
  total_gain : int;
  budget_spent : int;
  budget_extensions : int;
  move_log : (string * int) list;
}

type event = {
  iteration : int;
  round : int;
  tier : int;
  move : string;
  cost : int;
  gain : int;
  accepted : bool;
  budget_left : int;
  budget_spent : int;
  gradient : float;
  size : int;
}

let event_to_json e =
  Printf.sprintf
    "{\"iteration\":%d,\"round\":%d,\"tier\":%d,\"move\":%S,\"cost\":%d,\"gain\":%d,\"accepted\":%b,\"budget_left\":%d,\"budget_spent\":%d,\"gradient\":%.6f,\"size\":%d}"
    e.iteration e.round e.tier e.move e.cost e.gain e.accepted e.budget_left
    e.budget_spent e.gradient e.size

(* A move transforms the AIG (possibly returning a rebuilt one) and
   reports its exact size gain. All moves guarantee gain >= 0: pure
   in-place passes only commit improving changes, and rebuilding moves
   fall back to the input when they lose. Moves receive the span of
   their own attempt, so engine-level counters (BDD traffic, SAT
   effort) nest under the move that caused them. *)
type move = {
  name : string;
  kind : Aig.Origin.kind; (* provenance tag for nodes the move builds *)
  cost : int;
  apply : Obs.span -> Aig.t -> Aig.t * int;
}

let in_place name kind cost pass =
  { name; kind; cost; apply = (fun obs aig -> (aig, pass obs aig)) }

let rebuilding name kind cost build =
  {
    name;
    kind;
    cost;
    apply =
      (fun obs aig ->
        let before = Aig.size aig in
        let candidate = build obs aig in
        let after = Aig.size candidate in
        if after <= before then (candidate, before - after) else (aig, 0));
  }

(* The Boolean-engine moves call each engine through its own config:
   every move shares the run's [prefilter] bank, and the move table
   sets the per-move partition sizes. *)
let moves ~prefilter =
  let kernel = { Hetero_kernel.default_config with prefilter } in
  let mspf =
    {
      Mspf.default_config with
      limits = { Mspf.default_config.limits with Partition.max_nodes = 150 };
      prefilter;
    }
  in
  [
    in_place "rewrite" Aig.Origin.Rewrite 1 (fun _ aig -> Sbm_aig.Rewrite.run aig);
    rebuilding "balance" Aig.Origin.Balance 1 (fun _ aig -> Sbm_aig.Balance.run aig);
    in_place "refactor" Aig.Origin.Refactor 2 (fun _ aig -> Sbm_aig.Refactor.run ~max_leaves:8 ~min_mffc:2 aig);
    in_place "resub" Aig.Origin.Resub 2 (fun _ aig -> Sbm_aig.Resub.run ~max_leaves:6 ~max_divisors:20 aig);
    in_place "rewrite -z" Aig.Origin.Rewrite 2 (fun _ aig ->
        Sbm_aig.Rewrite.run ~zero_gain:true aig);
    rebuilding "eliminate & kernel" Aig.Origin.Kernel 3 (fun obs aig ->
        fst (Hetero_kernel.run ~obs ~config:{ kernel with partition_size = 60 } aig));
    in_place "refactor -h" Aig.Origin.Refactor 4 (fun _ aig -> Sbm_aig.Refactor.run ~max_leaves:12 ~min_mffc:2 aig);
    in_place "resub -h" Aig.Origin.Resub 5 (fun _ aig ->
        Sbm_aig.Resub.run ~max_leaves:9 ~max_divisors:60 aig);
    in_place "mspf resub" Aig.Origin.Mspf 6 (fun obs aig ->
        Mspf.optimize ~obs ~config:mspf aig);
    rebuilding "eliminate & kernel -h" Aig.Origin.Kernel 6 (fun obs aig ->
        fst (Hetero_kernel.run ~obs ~config:kernel aig));
  ]

let optimize ?(obs = Obs.null) ?(explain = fun (_ : event) -> ())
    ?(config = default_config) aig0 =
  let aig = ref aig0 in
  let all_moves = moves ~prefilter:config.prefilter in
  let max_cost = List.fold_left (fun acc m -> max acc m.cost) 1 all_moves in
  let success : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let stat name gained =
    let s, t = Option.value ~default:(0, 0) (Hashtbl.find_opt success name) in
    Hashtbl.replace success name ((s + if gained then 1 else 0), t + 1)
  in
  let priority m =
    let s, t = Option.value ~default:(0, 0) (Hashtbl.find_opt success m.name) in
    if t = 0 then 0.5 else float_of_int s /. float_of_int t
  in
  let budget = ref config.budget in
  let tier = ref 1 in
  let tried = ref 0 in
  let gained = ref 0 in
  let total_gain = ref 0 in
  let spent = ref 0 in
  let extensions = ref 0 in
  let log = ref [] in
  let recent = Queue.create () in
  let initial_size = max 1 (Aig.size aig0) in
  let push_gain g =
    Queue.add g recent;
    if Queue.length recent > k then ignore (Queue.take recent)
  in
  let gradient () =
    if Queue.length recent < k then 1.0
    else
      let s = Queue.fold (fun acc g -> acc + g) 0 recent in
      float_of_int s /. float_of_int initial_size
  in
  (* A child span per attempted move: the trajectory artifact the
     bench emits is exactly this sequence. *)
  let timed_apply m target =
    (* Per-move provenance: nodes built by this attempt are the
       gradient engine's, attributed to the specific move. *)
    Aig.set_origin target
      (Aig.Origin.make ~pass:("gradient/" ^ m.name) m.kind);
    let traced = Obs.enabled obs in
    let sp =
      if traced then Obs.span ~size:(Aig.size target) obs m.name else Obs.null
    in
    let next, gain = m.apply sp target in
    Obs.bump sp m_move_cost m.cost;
    Obs.bump sp m_move_gain gain;
    if traced then Obs.close ~size:(Aig.size next) sp;
    (next, gain)
  in
  let continue_ = ref true in
  let round = ref 0 in
  while !continue_ && !budget > 0 do
    incr round;
    (* The early-termination gradient as of the start of this round:
       what the explain stream reports for every attempt in it. *)
    let round_gradient = gradient () in
    let emit m ~gain ~accepted ~size =
      explain
        {
          iteration = !tried;
          round = !round;
          tier = !tier;
          move = m.name;
          cost = m.cost;
          gain;
          accepted;
          budget_left = !budget;
          budget_spent = !spent;
          gradient = round_gradient;
          size;
        }
    in
    (* Candidate moves at the current tier, most promising first
       (recorded success, then cheapness). *)
    let tier_moves =
      List.filter (fun m -> m.cost <= !tier) all_moves
      |> List.sort (fun a b ->
             let c = compare (priority b) (priority a) in
             if c <> 0 then c else compare a.cost b.cost)
    in
    let apply_one m =
      budget := !budget - m.cost;
      spent := !spent + m.cost;
      incr tried;
      let next, gain = timed_apply m !aig in
      aig := next;
      stat m.name (gain > 0);
      if gain > 0 then begin
        incr gained;
        total_gain := !total_gain + gain
      end;
      log := (m.name, gain) :: !log;
      emit m ~gain ~accepted:(gain > 0) ~size:(Aig.size !aig);
      gain
    in
    let round_gain =
      match config.selection with
      | Waterfall ->
        (* First successful move wins; the rest are not tried. *)
        let rec go = function
          | [] -> 0
          | m :: rest ->
            let g = apply_one m in
            if g > 0 || !budget <= 0 then g else go rest
        in
        go tier_moves
      | Parallel ->
        (* Evaluate all moves on copies; commit the best. The explain
           events are emitted once the round's winner is known, in
           attempt order. *)
        let best = ref None in
        let attempts = ref [] in
        List.iter
          (fun m ->
            if !budget > 0 then begin
              budget := !budget - m.cost;
              spent := !spent + m.cost;
              incr tried;
              let copy = Aig.copy !aig in
              let next, gain = timed_apply m copy in
              stat m.name (gain > 0);
              log := (m.name, gain) :: !log;
              attempts := (!tried, m, gain, Aig.size next) :: !attempts;
              match !best with
              | Some (bg, _, _) when bg >= gain -> ()
              | Some _ | None -> best := Some (gain, m, next)
            end)
          tier_moves;
        let committed =
          match !best with
          | Some (gain, m, next) when gain > 0 ->
            aig := next;
            incr gained;
            total_gain := !total_gain + gain;
            Some m
          | Some _ | None -> None
        in
        List.iter
          (fun (iteration, m, gain, size) ->
            explain
              {
                iteration;
                round = !round;
                tier = !tier;
                move = m.name;
                cost = m.cost;
                gain;
                accepted = (match committed with Some c -> c == m | None -> false);
                budget_left = !budget;
                budget_spent = !spent;
                gradient = round_gradient;
                size;
              })
          (List.rev !attempts);
        (match !best with Some (gain, _, _) when gain > 0 -> gain | _ -> 0)
    in
    push_gain round_gain;
    let module FR = Obs.Flight_recorder in
    if FR.enabled () then
      FR.record ~severity:FR.Debug ~engine:"gradient"
        ~id:(Printf.sprintf "round-%d" !round)
        ~metrics:
          [ ("gain", round_gain); ("tier", !tier); ("budget_left", !budget);
            ("size", Aig.size !aig) ]
        "round done";
    Obs.Watchdog.note_round ~gain:round_gain;
    Obs.Watchdog.poll ();
    if Obs.Watchdog.abort_requested () then begin
      (* Graceful wind-down: the remaining budget is marked exhausted,
         so the run's accounting shows where the watchdog cut it. *)
      if FR.enabled () then
        FR.record ~severity:FR.Warn ~engine:"gradient"
          ~metrics:[ ("budget_forfeited", !budget) ]
          "aborted by watchdog; budget marked exhausted";
      Obs.bump obs m_gradient_aborts 1;
      Obs.bump obs m_budget_forfeited !budget;
      budget := 0;
      continue_ := false
    end;
    if round_gain = 0 then begin
      if !tier >= max_cost then continue_ := false else incr tier
    end
    else begin
      (* Gains at a cheap tier: stay greedy. Extend the budget while
         the optimization trend is good enough. *)
      if gradient () >= config.min_gradient && !budget < config.budget then begin
        budget := !budget + (config.budget / 2);
        incr extensions
      end
    end;
    if Queue.length recent >= k && gradient () <= 0.0 then continue_ := false
  done;
  Obs.bump obs m_moves_tried !tried;
  Obs.bump obs m_moves_gained !gained;
  Obs.bump obs m_gain !total_gain;
  Obs.bump obs m_budget_spent !spent;
  Obs.bump obs m_budget_extensions !extensions;
  Obs.bump obs m_rounds !round;
  ( !aig,
    {
      moves_tried = !tried;
      moves_gained = !gained;
      total_gain = !total_gain;
      budget_spent = !spent;
      budget_extensions = !extensions;
      move_log = List.rev !log;
    } )

let run ?obs ?explain ?config aig =
  let optimized, stats = optimize ?obs ?explain ?config (Aig.copy aig) in
  (fst (Aig.compact optimized), stats)
