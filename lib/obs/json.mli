(** The one JSON module of the telemetry layer: a minimal
    recursive-descent parser, the accessors the typed readers build on,
    and the writer every emitter shares (trace and snapshot documents,
    ledger rows, audit-trail records, status samples, post-mortem dumps
    and the report commands' [--json] output). No dependency beyond the
    stdlib. *)

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

(** {1 Typed-reader helpers} — a missing or mistyped member reads as
    the default. *)

val str : ?default:string -> string -> t -> string
(** [str key j] is string member [key] of [j] (default [""]). *)

val int : ?default:int -> string -> t -> int
(** Default [0]. *)

val num : ?default:float -> string -> t -> float
(** Default [0.0]. *)

val flag : string -> t -> bool
(** Default [false]. *)

val counters : string -> t -> (string * int) list
(** The integer members of object member [key], in document order. *)

(** {1 Times} *)

val ms_of_ns : int64 -> float

val ns_of_ms : float -> int64
(** Nearest nanosecond. *)

val written_ms : float -> float
(** The value a writer's [%.3f] millisecond field reads back as.
    Producers round live times with it, so a record they hold equals
    the record a reader parses from their output. *)

(** {1 Writer} *)

val escape : string -> string
(** The body of a JSON string literal: quote, backslash and control
    characters escaped. *)

val buf_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** [[x,...]], each element written by the function. *)

val buf_obj : Buffer.t -> (Buffer.t -> 'a -> unit) -> (string * 'a) list -> unit
(** [{"name":v,...}] in list order, each value written by the
    function. *)

val buf_counters : Buffer.t -> (string * int) list -> unit
(** [{"name":value,...}] in list order. *)
