(** ASCII AIGER (AAG) reading and writing.

    Combinational subset only (no latches): enough to exchange
    networks with ABC/mockturtle-style tools and to persist EPFL-style
    benchmarks.

    Reading is strict: every malformed input raises {!Error} with a
    one-line message, never another exception. Header counts are
    checked before anything is sized by them (ASCII: I + L + A <= M;
    binary: M = I + L + A, at most 2{^20} implicit inputs), and memory
    grows with the data the file actually holds, not with its header. *)

(** A malformed or unsupported input: the message names the problem
    and, where it applies, the line. *)
exception Error of string

(** [write aig] renders the network in [aag] format. Nodes are
    renumbered (inputs first, then ANDs topologically). *)
val write : Aig.t -> string

(** [write_file aig path] writes {!write}'s output to a file. *)
val write_file : Aig.t -> string -> unit

(** [read s] parses an [aag] string.
    @raise Error on malformed input or latch sections. *)
val read : string -> Aig.t

(** [read_file path] parses the file at [path]; both [aag] (ASCII)
    and [aig] (binary) headers are accepted.
    @raise Error on malformed input.
    @raise Sys_error when the file cannot be opened or read. *)
val read_file : string -> Aig.t

(** [write_binary aig] renders the network in the binary [aig] format
    (delta-encoded AND section), the format the EPFL suite
    distributes. *)
val write_binary : Aig.t -> string

(** [read_binary s] parses a binary [aig] string.
    @raise Error on malformed input. *)
val read_binary : string -> Aig.t
