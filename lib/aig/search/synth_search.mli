(** The decomposition search behind {!Sbm_aig.Synth}, on its own so
    that the build can run it: [gen_table.exe] fills the table of every
    function of at most {!table_vars} inputs once, at build time, and
    writes it out as the string literal that [Synth] reads. *)

(** One step of a decomposition, on a table that depends on all its
    variables; the integer names a variable of that table. *)
type choice =
  | Const of bool
  | Literal of int * bool  (** variable, complemented *)
  | Shannon of int  (** [mux(x, hi, lo)] *)
  | Xor of int  (** [x xor lo] *)
  | And_pos of int  (** [x and hi] *)
  | And_neg of int  (** [~x and lo] *)
  | Or_pos of int  (** [x or lo] *)
  | Or_neg of int  (** [~x or hi] *)

(** AND nodes charged per 2-input XOR (see {!Sbm_aig.Synth.xor_cost}). *)
val xor_cost : int

(** [compact tt] is [tt] over its support, the variables it ignores
    dropped and the others kept in order, with that support (ascending
    positions of [tt]). *)
val compact : Sbm_truthtable.Tt.t -> Sbm_truthtable.Tt.t * int list

(** Functions on at most this many variables are answered from the
    table. *)
val table_vars : int

(** The table's size in bytes: one 16-bit entry per slot. *)
val table_bytes : int

(** [search table memo tt] is [(cost, choice)] for a table [tt] that
    depends on all its variables, reading [table] for at most
    {!table_vars} variables. Wider tables are searched and memoized in
    [memo] (allocated on first use); pass [ref None] per call site. *)
val search :
  Bytes.t ->
  (int * choice) Sbm_truthtable.Tt.Tbl.t option ref ->
  Sbm_truthtable.Tt.t ->
  int * choice

(** [fill table] writes the search's answer for every table on at most
    {!table_vars} variables into [table] (of {!table_bytes} bytes). *)
val fill : Bytes.t -> unit
