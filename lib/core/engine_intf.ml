(* The unified engine interface: one typed [config] record shared by
   every Boolean engine, replacing the per-engine ad-hoc optional
   arguments that used to leak into [Flow], [Gradient] and the CLI.

   The overridable knobs are [option]s with [None] meaning "the
   engine's own default" — the defaults differ per engine (e.g. the
   heterogeneous-kernel SOP chunk size vs. the BDD engines' partition
   node limit), and a shared concrete default would silently change
   behaviour. [effort] maps onto each engine's effort-dependent knobs
   (today: Boolean-difference zero-gain acceptance). *)

module Aig = Sbm_aig.Aig

type effort = Low | High

type config = {
  obs : Sbm_obs.span;  (* telemetry span the run reports into *)
  effort : effort;
  partition_nodes : int option;
      (* partition size: max member nodes (BDD engines) or SOP chunk
         size (kernel engine); None = engine default *)
  bdd_node_limit : int option;  (* BDD manager budget; None = default *)
  prefilter : Prefilter.bank option;
      (* simulation prefilter pattern bank; None = filtering off *)
}

let default =
  {
    obs = Sbm_obs.null;
    effort = Low;
    partition_nodes = None;
    bdd_node_limit = None;
    prefilter = None;
  }

(* Uniform run statistics: the size gain plus the engine's own
   counters as labelled values (the same names the telemetry span
   receives, minus the engine prefix). *)
type stats = { gain : int; details : (string * int) list }

module type S = sig
  val name : string

  (* Provenance tag stamped on nodes the engine builds when no flow
     script set a finer-grained one. *)
  val default_origin : Aig.Origin.t

  (* [run config aig] optimizes a copy and returns the compacted
     result; the input is not modified. *)
  val run : config -> Aig.t -> Aig.t * stats

  (* [optimize config aig] is the in-place variant: it mutates (and
     possibly rebuilds) [aig] and returns the network to use. *)
  val optimize : config -> Aig.t -> Aig.t * stats
end
