(** A minimal recursive-descent JSON parser, sufficient for every
    document the telemetry layer emits (trace reports, QoR snapshots,
    gradient explain streams). No dependency beyond the stdlib; the
    test-suite uses it to round-trip the reporters. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse} with a position-carrying message. *)

(** [parse s] parses exactly one JSON value spanning all of [s]
    (surrounding whitespace allowed). Raises {!Bad} on malformed
    input or trailing garbage. *)
val parse : string -> t

(** [read_source src] reads the whole of [src] — a file path, or ["-"]
    for stdin. Works on pipes (no length probe). [Error] carries the
    system message on open failure. *)
val read_source : string -> (string, string) result

(** [load_lines path] parses a JSON-lines file: one value per line,
    oldest first. Blank lines and lines that do not parse are skipped —
    a writer killed mid-append leaves a torn final line, and the
    complete records before it must survive. [Error] carries the
    system message when the file cannot be read. *)
val load_lines : string -> (t list, string) result

(** {1 Accessors} — total functions returning options/defaults so
    callers can probe optional fields without matching. *)

(** [member key json] is the field [key] of an object, if present. *)
val member : string -> t -> t option

val to_int : t option -> int option
val to_float : t option -> float option
val to_str : t option -> string option
val to_bool : t option -> bool option

(** [to_list j] is the elements of a [List], or [[]]. *)
val to_list : t option -> t list

(** [to_obj j] is the fields of an [Obj], or [[]]. *)
val to_obj : t option -> (string * t) list
