(** The JSON writer shared by every emitter in [lib/obs] and
    [lib/report]: trace and snapshot documents, ledger rows, audit
    trail records, status samples, post-mortem dumps and the report
    commands' [--json] output. *)

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
