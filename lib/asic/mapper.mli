(** Technology mapping: AIG to standard cells.

    Cut-based structural matching: 4-input cuts are matched (in both
    polarities) against all pin permutations of the library cells; a
    two-phase dynamic program selects the cheapest implementation per
    node, and derivation materializes each (node, phase) at most once,
    inserting inverters where phases disagree. Both the baseline and
    the SBM ASIC flows share this backend, so Table III deltas isolate
    the logic optimization. *)

(** [map aig] maps the network. Constant outputs are derived from
    primary input 0, or from a tie cell when there are no inputs. *)
val map : Sbm_aig.Aig.t -> Netlist.t
