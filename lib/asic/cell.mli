(** Standard-cell library model.

    A small technology library with normalized area, pin capacitance
    and a linear delay model (intrinsic + drive resistance x load),
    in the spirit of a generic educational PDK. Cell functions are
    single-word truth tables over up to 4 inputs, leaves sorted; the
    mapper matches cut functions against all input permutations. *)

type t = {
  name : string;
  arity : int;
  tt : int64; (** function over [arity] vars, low [2^arity] bits *)
  area : float;
  input_cap : float; (** per input pin *)
  intrinsic : float; (** delay floor *)
  drive : float; (** delay slope per unit load *)
}

(** The library cells. Always contains an inverter and 2-input
    NAND/NOR (full coverage of any AIG). *)
val library : t list

(** [inverter] is the library's INV cell. *)
val inverter : t

(** [tie_low] is a 0-input cell driving constant 0. It is not in
    {!library}: the mapper uses it only for a network without primary
    inputs, where no input net exists to derive a constant from. *)
val tie_low : t

(** [match_table ()] maps a (arity, truth-table) pair to the cheapest
    matching cell, the input permutation and the input phase mask:
    cell pin [p] reads cut leaf [perm.(p)], complemented when bit [p]
    of the mask is set (the mapper charges the inverter through the
    two-phase DP). Built once, memoized. *)
val match_table : unit -> (int * int64, t * int array * int) Hashtbl.t
