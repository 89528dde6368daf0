(** Process-global typed metrics registry.

    Counters and gauges are registered once, at module
    initialization, with name/kind/unit/engine/description metadata.
    Registering the same name twice is a hard error ([Invalid_argument]):
    the registry doubles as the authoritative metric catalog behind
    [sbm metrics], so silent shadowing would hide drift.

    The registry is the only counter store: a span's counters are the
    registry's {!activity} while it was open (see {!Sbm_obs}). Every
    counter bump goes straight to a process-global atomic cell. *)

type kind = Counter | Gauge

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type t
(** A registered metric handle. Obtain one via {!counter} / {!gauge}
    at module-initialization time and keep it; bumping through the
    handle is a single atomic op. *)

(** {1 Registration} *)

val counter : ?engine:string -> ?unit_:string -> string -> string -> t
(** [counter ?engine ?unit_ name description] registers a monotonic
    counter. [unit_] defaults to ["count"]. @raise Invalid_argument on
    duplicate [name]. *)

val gauge : ?engine:string -> ?unit_:string -> string -> string -> t
(** A settable point-in-time value. *)

(** {1 Metadata} *)

val name : t -> string
val kind : t -> kind
val unit_ : t -> string
val engine : t -> string
val description : t -> string

val find : string -> t option
val all : unit -> t list
(** All registered metrics, sorted by name. *)

(** {1 Updates} *)

val add : t -> int -> unit
(** Counter only ([Invalid_argument] otherwise). *)

val incr : t -> unit
val set : t -> int -> unit
(** Gauge only. Always writes the global cell. *)

val set_max : t -> int -> unit
(** Gauge only: raise the cell to [v] if larger (atomic max). Safe
    from any domain; used for high-water marks like peak heap and
    table load factors, which must never depend on write order. *)

(** {1 Reads} *)

val value : t -> int
(** Current counter total or gauge value (the process GC gauges sample
    on read). *)

val counters_now : unit -> (string * int) list
val gauges_now : unit -> (string * int) list
(** Sorted-by-name snapshots of every metric of the given kind. *)

type snapshot
(** Every counter's value and bump count at one instant. Spans take
    one when they open and one when they close. *)

val snapshot : unit -> snapshot

val activity : snapshot -> snapshot -> (string * int * int) list
(** [activity before now] is [(name, value delta, bumps)] for every
    counter bumped at least once between the two snapshots, sorted by
    name. A bump by 0 counts, so a span can report a counter it
    touched without moving it. *)

(** {1 Built-in process metrics} *)

val live_aig_nodes : t
(** Gauge, set when a pass span opens or closes, where the node count
    is already computed ([Aig.size] is a live-node traversal, not
    O(1)). *)

val peak_heap_words : t
(** Gauge, raised via {!set_max} when a pass span closes and by
    pool workers as they claim jobs; the per-pass ledger reads it as a
    peak-heap sample. *)

val bench_wall_ms_min : t
(** Gauge mirroring the [bench.wall_ms_min] snapshot counter written
    by [sbm bench --repeat]. *)
