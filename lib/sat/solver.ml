module Vec = Sbm_util.Vec

type result = Sat | Unsat | Unknown

(* Internal literal encoding: 2*v for +v, 2*v+1 for -v (v >= 1). *)
let lit_of_dimacs d = if d > 0 then 2 * d else (2 * -d) + 1
let lvar l = l lsr 1
let lneg l = l lxor 1

type t = {
  mutable nvars : int;
  mutable clauses : int array array;
  mutable nclauses : int;
  mutable watches : Vec.t array; (* indexed by literal *)
  mutable assign : int array; (* per var: -1 undef, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array; (* clause index or -1 *)
  mutable activity : float array;
  mutable phase : int array; (* saved phase per var *)
  mutable seen : int array;
  trail : Vec.t;
  trail_lim : Vec.t;
  heap : Vec.t; (* lazy max-heap of candidate decision variables *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 64 [||];
    nclauses = 0;
    watches = Array.make 16 (Vec.create ());
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    phase = Array.make 8 0;
    seen = Array.make 8 0;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    heap = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
  }

let num_vars t = t.nvars
let num_conflicts t = t.conflicts
let num_decisions t = t.decisions
let num_propagations t = t.propagations
let num_restarts t = t.restarts

let ensure_var_capacity t =
  let need = t.nvars + 1 in
  if need >= Array.length t.assign then begin
    let cap = max (2 * Array.length t.assign) (need + 1) in
    let ext a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.assign <- ext t.assign (-1);
    t.level <- ext t.level 0;
    t.reason <- ext t.reason (-1);
    t.activity <- ext t.activity 0.0;
    t.phase <- ext t.phase 0;
    t.seen <- ext t.seen 0
  end;
  let lit_need = 2 * need + 2 in
  if lit_need >= Array.length t.watches then begin
    let cap = max (2 * Array.length t.watches) lit_need in
    let w = Array.init cap (fun i -> if i < Array.length t.watches then t.watches.(i) else Vec.create ()) in
    t.watches <- w
  end

(* Lazy binary max-heap on variable activity: duplicates are allowed
   (pushed on every bump/unassign); pops skip assigned variables.
   Staleness after activity rescaling only degrades the heuristic,
   never correctness. *)
let heap_push t v =
  let h = t.heap in
  Vec.push h v;
  let i = ref (Vec.size h - 1) in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.activity.(Vec.get h parent) < t.activity.(Vec.get h !i) then begin
      let tmp = Vec.get h parent in
      Vec.set h parent (Vec.get h !i);
      Vec.set h !i tmp;
      i := parent
    end
    else continue_ := false
  done

let heap_pop t =
  let h = t.heap in
  if Vec.is_empty h then -1
  else begin
    let top = Vec.get h 0 in
    let last = Vec.pop h in
    if Vec.size h > 0 then begin
      Vec.set h 0 last;
      let n = Vec.size h in
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let largest = ref !i in
        if l < n && t.activity.(Vec.get h l) > t.activity.(Vec.get h !largest) then
          largest := l;
        if r < n && t.activity.(Vec.get h r) > t.activity.(Vec.get h !largest) then
          largest := r;
        if !largest <> !i then begin
          let tmp = Vec.get h !largest in
          Vec.set h !largest (Vec.get h !i);
          Vec.set h !i tmp;
          i := !largest
        end
        else continue_ := false
      done
    end;
    top
  end

let new_var t =
  t.nvars <- t.nvars + 1;
  ensure_var_capacity t;
  (* Fresh watch vectors: the Array.make in [create] shares one Vec. *)
  t.watches.(2 * t.nvars) <- Vec.create ();
  t.watches.((2 * t.nvars) + 1) <- Vec.create ();
  heap_push t t.nvars;
  t.nvars

let lit_value t l =
  let a = t.assign.(lvar l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = Vec.size t.trail_lim

let enqueue t l reason =
  t.assign.(lvar l) <- 1 lxor (l land 1);
  t.level.(lvar l) <- decision_level t;
  t.reason.(lvar l) <- reason;
  t.phase.(lvar l) <- 1 lxor (l land 1);
  Vec.push t.trail l

let add_clause_internal t lits =
  match lits with
  | [||] ->
    t.ok <- false;
    false
  | [| l |] ->
    (match lit_value t l with
    | 1 -> true
    | 0 ->
      t.ok <- false;
      false
    | _ ->
      enqueue t l (-1);
      true)
  | _ ->
    if t.nclauses >= Array.length t.clauses then begin
      let bigger = Array.make (2 * Array.length t.clauses) [||] in
      Array.blit t.clauses 0 bigger 0 t.nclauses;
      t.clauses <- bigger
    end;
    let ci = t.nclauses in
    t.clauses.(ci) <- lits;
    t.nclauses <- ci + 1;
    (* Watch lists are keyed by the watched literal itself: when a
       literal becomes false, the clauses watching it are visited. *)
    Vec.push t.watches.(lits.(0)) ci;
    Vec.push t.watches.(lits.(1)) ci;
    true

let add_clause t dimacs =
  if not t.ok then false
  else begin
    (* Simplify: drop false lits (at level 0), detect tautology. *)
    let lits = List.map lit_of_dimacs dimacs in
    List.iter
      (fun l -> if lvar l > t.nvars then invalid_arg "Solver.add_clause: unknown variable")
      lits;
    let lits = List.sort_uniq Stdlib.compare lits in
    let taut = List.exists (fun l -> List.mem (lneg l) lits) lits in
    if taut then true
    else begin
      let lits =
        List.filter (fun l -> not (lit_value t l = 0 && t.level.(lvar l) = 0)) lits
      in
      if List.exists (fun l -> lit_value t l = 1 && t.level.(lvar l) = 0) lits then true
      else add_clause_internal t (Array.of_list lits)
    end
  end

(* Propagate all enqueued assignments; returns conflicting clause
   index or -1. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < Vec.size t.trail do
    let l = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    (* [l] became true; scan clauses watching [lneg l]. *)
    let false_lit = lneg l in
    let ws = t.watches.(false_lit) in
    let n = Vec.size ws in
    let keep = Vec.create ~capacity:n () in
    let i = ref 0 in
    while !i < n do
      let ci = Vec.get ws !i in
      incr i;
      let c = t.clauses.(ci) in
      (* Ensure the false literal is at position 1. *)
      if c.(0) = false_lit then begin
        c.(0) <- c.(1);
        c.(1) <- false_lit
      end;
      if lit_value t c.(0) = 1 then Vec.push keep ci
      else begin
        (* Find a new watch. *)
        let len = Array.length c in
        let rec find j = if j >= len then -1 else if lit_value t c.(j) <> 0 then j else find (j + 1) in
        let j = find 2 in
        if j >= 0 then begin
          c.(1) <- c.(j);
          c.(j) <- false_lit;
          Vec.push t.watches.(c.(1)) ci
        end
        else begin
          Vec.push keep ci;
          match lit_value t c.(0) with
          | 0 ->
            (* Conflict: keep the remaining watchers, stop. *)
            while !i < n do
              Vec.push keep (Vec.get ws !i);
              incr i
            done;
            t.qhead <- Vec.size t.trail;
            conflict := ci
          | _ ->
            t.propagations <- t.propagations + 1;
            enqueue t c.(0) ci
        end
      end
    done;
    t.watches.(false_lit) <- keep
  done;
  !conflict

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  heap_push t v;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

(* First-UIP conflict analysis; returns (learned clause, backtrack
   level). learned.(0) is the asserting literal. *)
let analyze t confl =
  let learned = Vec.create () in
  Vec.push learned 0 (* placeholder *);
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (Vec.size t.trail - 1) in
  let continue_ = ref true in
  while !continue_ do
    let c = t.clauses.(!confl) in
    let start = if !p < 0 then 0 else 1 in
    for j = start to Array.length c - 1 do
      let q = c.(j) in
      let v = lvar q in
      if t.seen.(v) = 0 && t.level.(v) > 0 then begin
        t.seen.(v) <- 1;
        var_bump t v;
        if t.level.(v) >= decision_level t then incr path
        else Vec.push learned q
      end
    done;
    (* Select next literal to expand from the trail. *)
    let rec back () =
      let l = Vec.get t.trail !idx in
      decr idx;
      if t.seen.(lvar l) = 0 then back () else l
    in
    let l = back () in
    t.seen.(lvar l) <- 0;
    decr path;
    if !path <= 0 then begin
      Vec.set learned 0 (lneg l);
      continue_ := false
    end
    else begin
      p := l;
      confl := t.reason.(lvar l)
    end
  done;
  let lits = Vec.to_array learned in
  (* Clear seen flags. *)
  Array.iter (fun l -> t.seen.(lvar l) <- 0) lits;
  (* Backtrack level: max level among lits.(1..). *)
  let blevel = ref 0 in
  let swap_pos = ref 1 in
  Array.iteri
    (fun i l ->
      if i > 0 && t.level.(lvar l) > !blevel then begin
        blevel := t.level.(lvar l);
        swap_pos := i
      end)
    lits;
  if Array.length lits > 1 then begin
    let tmp = lits.(1) in
    lits.(1) <- lits.(!swap_pos);
    lits.(!swap_pos) <- tmp
  end;
  (lits, !blevel)

let backtrack t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      t.assign.(lvar l) <- -1;
      t.reason.(lvar l) <- -1;
      heap_push t (lvar l)
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- bound
  end

let pick_branch t =
  (* Highest-activity unassigned variable from the lazy heap; fall
     back to a scan when the heap runs dry (duplicates were consumed
     earlier). *)
  let rec pop () =
    let v = heap_pop t in
    if v = -1 then -1 else if t.assign.(v) < 0 then v else pop ()
  in
  let v =
    match pop () with
    | -1 ->
      let best = ref (-1) in
      let best_act = ref neg_infinity in
      for v = 1 to t.nvars do
        if t.assign.(v) < 0 && t.activity.(v) > !best_act then begin
          best := v;
          best_act := t.activity.(v)
        end
      done;
      !best
    | v -> v
  in
  if v = -1 then -1
  else if t.phase.(v) = 1 then 2 * v
  else (2 * v) + 1

let solve ?(assumptions = []) ?(conflict_limit = max_int) t =
  if not t.ok then Unsat
  else begin
    backtrack t 0;
    let assumption_lits = List.map lit_of_dimacs assumptions in
    let budget = t.conflicts + conflict_limit in
    let result = ref None in
    let restart_limit = ref 100 in
    let conflicts_here = ref 0 in
    (match propagate t with
    | -1 -> ()
    | _ ->
      t.ok <- false;
      result := Some Unsat);
    while !result = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.conflicts <- t.conflicts + 1;
        incr conflicts_here;
        if decision_level t <= List.length assumption_lits then result := Some Unsat
        else if t.conflicts >= budget then result := Some Unknown
        else begin
          let lits, blevel = analyze t confl in
          let blevel = max blevel (List.length assumption_lits) in
          backtrack t blevel;
          t.var_inc <- t.var_inc /. 0.95;
          if Array.length lits = 1 then begin
            backtrack t (min (decision_level t) (List.length assumption_lits));
            if lit_value t lits.(0) = 0 then result := Some Unsat
            else if lit_value t lits.(0) < 0 then enqueue t lits.(0) (-1)
          end
          else begin
            ignore (add_clause_internal t lits);
            enqueue t lits.(0) (t.nclauses - 1)
          end
        end
      end
      else if !conflicts_here >= !restart_limit then begin
        conflicts_here := 0;
        restart_limit := !restart_limit * 3 / 2;
        t.restarts <- t.restarts + 1;
        (* Restart storm: a solver restarting this much on one
           instance is the in-flight signal of a hard miter. Every
           64th restart lands in the record stream (cheap: one
           branch per restart, and restarts are rare events). *)
        (let module S = Sbm_obs.Stream in
         if S.recorder_on () && t.restarts land 63 = 0 then
           S.append ~severity:S.Warn ~engine:"sat"
             ~metrics:
               [ ("restarts", t.restarts); ("conflicts", t.conflicts);
                 ("vars", t.nvars); ("clauses", t.nclauses) ]
             "restart storm");
        backtrack t (List.length assumption_lits)
      end
      else begin
        (* Extend assumptions, then decide. *)
        let dl = decision_level t in
        if dl < List.length assumption_lits then begin
          let l = List.nth assumption_lits dl in
          match lit_value t l with
          | 1 ->
            (* Already satisfied: open an empty decision level. *)
            Vec.push t.trail_lim (Vec.size t.trail)
          | 0 -> result := Some Unsat
          | _ ->
            Vec.push t.trail_lim (Vec.size t.trail);
            enqueue t l (-1)
        end
        else begin
          match pick_branch t with
          | -1 -> result := Some Sat
          | l ->
            t.decisions <- t.decisions + 1;
            Vec.push t.trail_lim (Vec.size t.trail);
            enqueue t l (-1)
        end
      end
    done;
    let r = Option.get !result in
    (match r with
    | Sat -> () (* keep the trail: the model is read before next call *)
    | Unsat | Unknown -> backtrack t 0);
    r
  end

let model_value t v =
  if v < 1 || v > t.nvars then invalid_arg "Solver.model_value";
  t.assign.(v) = 1
