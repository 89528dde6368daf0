(** Gradient-based AIG minimization (paper Section IV-A).

    Instead of a fixed script, the engine learns online which local
    moves pay off. Moves are primitive transformations with an
    associated cost (their runtime complexity class); most exist in
    low- and high-effort variants. Selection is waterfall: cheap moves
    are iterated while they gain; at a local minimum (gain 0) more
    expensive moves enter. Per-move success statistics reorder future
    attempts; a cost budget bounds the run and is automatically
    extended while the gain gradient over the last [k] iterations
    exceeds [min_gradient] (paper defaults: budget 100, k = 20,
    gradient 3%). *)

type selection = Waterfall | Parallel

type config = {
  budget : int;
  min_gradient : float;
  selection : selection;
      (** [Waterfall] applies the first gaining move (the paper's
          recommended tradeoff); [Parallel] evaluates all moves at the
          current tier and applies the best. *)
  prefilter : Prefilter.bank option;
      (** simulation pattern bank shared by every Boolean-engine move;
          [None] = filtering off *)
}

val default_config : config

(** One attempted move, as seen by the selection rule — the unit of
    the [--explain] telemetry stream. Every move the engine charges
    budget for produces exactly one event, in chronological order. *)
type event = {
  iteration : int;
      (** 1-based attempt index (= [gradient.moves_tried] so far) *)
  round : int;  (** 1-based waterfall/parallel round *)
  tier : int;  (** cost tier the round ran at *)
  move : string;
  cost : int;  (** budget charged for the attempt *)
  gain : int;  (** nodes saved by the attempt *)
  accepted : bool;
      (** whether the selection rule committed this move's result:
          waterfall accepts any gaining move, parallel only the
          round's best gaining move *)
  budget_left : int;  (** budget remaining after charging [cost] *)
  budget_spent : int;  (** cumulative cost so far *)
  gradient : float;
      (** the early-termination gradient over the last [k] rounds, as
          of the start of this round (1.0 while the window is not yet
          full) *)
  size : int;  (** network size after the attempt was resolved *)
}

(** [event_to_json e] is a single-line JSON object with the fields of
    [e] (the record format of [sbm opt --explain FILE]). *)
val event_to_json : event -> string

(** [run ?obs ?explain ?config aig] optimizes a copy of [aig] and
    returns the compacted result; the input is not modified. The
    result never has more nodes than the input. The run totals go to
    the registry as [gradient.*] counters. When [obs] is an enabled
    span, every attempted move also becomes a child span (with
    [move.cost]/[move.gain] counters). When [explain] is given it
    receives one {!event} per attempted move, in order. *)
val run :
  ?obs:Sbm_obs.span ->
  ?explain:(event -> unit) ->
  ?config:config ->
  Sbm_aig.Aig.t ->
  Sbm_aig.Aig.t

(** [optimize ?obs ?explain ?config aig] is the in-place engine behind
    {!run}: it mutates (and possibly rebuilds) [aig] and returns the
    network to use. Flow scripts use it to avoid copying between
    passes. *)
val optimize :
  ?obs:Sbm_obs.span ->
  ?explain:(event -> unit) ->
  ?config:config ->
  Sbm_aig.Aig.t ->
  Sbm_aig.Aig.t
