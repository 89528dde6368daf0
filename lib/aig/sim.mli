(** Bit-parallel simulation of AIGs.

    Simulation drives equivalence-candidate detection (SAT sweeping,
    redundancy removal, the prefilter's pattern bank) and the
    test-suite's semantic checks. Each node carries a 64-bit word, so
    one pass evaluates 64 input patterns. *)

(** Default number of 64-pattern words (256 patterns) for the
    random-simulation filters: SAT sweeping's signatures, redundancy
    removal's candidate filter and the prefilter's pattern bank. *)
val default_words : int

(** [simulate aig words] runs one 64-pattern pass; [words.(i)] is the
    pattern word of primary input [i]. The result maps node ids to
    values (dead nodes hold 0). *)
val simulate : Aig.t -> int64 array -> int64 array

(** [lit_value values l] reads a literal out of a node-value map. *)
val lit_value : int64 array -> Aig.lit -> int64

(** [output_values aig values] extracts output words. *)
val output_values : Aig.t -> int64 array -> int64 array

(** [random_inputs aig rng] draws one random pattern word per input. *)
val random_inputs : Aig.t -> Sbm_util.Rng.t -> int64 array

(** [eval aig bits] evaluates a single input assignment; [bits.(i)]
    is input [i]. Returns one boolean per output. *)
val eval : Aig.t -> bool array -> bool array
