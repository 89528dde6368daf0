(** And-Inverter Graphs with structural hashing.

    The AIG is the common interchange format of the SBM flow (paper,
    Section V-A: "after each transformation, the logic network is
    translated into an AIG in order to have a consistent interface and
    costing"). This implementation keeps the invariants ABC-style:

    - every AND node is structurally hashed (no two live ANDs share the
      same ordered fanin pair);
    - constant and single-level simplifications are applied on
      construction ([a & a = a], [a & ~a = 0], [a & 1 = a], ...);
    - reference counts and fanout lists are maintained incrementally,
      enabling exact Maximum Fan-out Free Cone (MFFC, ref. [12]) sizes
      and exact gain accounting for optimization moves;
    - {!replace} substitutes a node by an arbitrary literal and
      propagates structural re-hashing through the fanout cone,
      merging nodes that become structurally identical.

    Literals encode a node id and a complement attribute as
    [2 * id + c]; node 0 is the constant-false node, so literal 0 is
    constant false and literal 1 constant true. *)

type t

type lit = int
(** [2 * node + complement]. *)

(** {1 Literals} *)

val lit_of : int -> bool -> lit
val node_of : lit -> int
val is_compl : lit -> bool
val lnot : lit -> lit

(** [lpos l] is [l] with the complement attribute cleared. *)
val lpos : lit -> lit

val const0 : lit
val const1 : lit

(** {1 Provenance}

    Every node carries an origin tag: which scripted pass (and which
    kind of move inside it) created it. Tags are interned per AIG —
    stamping a node is one array write — and survive {!copy},
    {!compact} and engine rebuilds (see {!begin_rebuild}). Attribution
    reporters group the final network's live nodes by tag. *)

module Origin : sig
  (** The move kind, following the paper's engine taxonomy. *)
  type kind =
    | Seed  (** present in the input network *)
    | Rewrite
    | Refactor
    | Resub
    | Balance
    | Diff  (** Boolean-difference resubstitution *)
    | Mspf  (** MSPF don't-care substitution *)
    | Kernel  (** heterogeneous eliminate / kernel extraction *)
    | Sweep  (** SAT sweeping / redundancy removal *)
    | Other

  type t = { pass : string; kind : kind }

  (** The default tag: nodes of the seed network. *)
  val seed : t

  val make : pass:string -> kind -> t
  val kind_to_string : kind -> string
  val kind_of_string : string -> kind option
  val pp : Format.formatter -> t -> unit
end

(** [set_origin aig o] makes [o] the ambient origin: every node
    allocated from now on is stamped with it. Flow scripts set this at
    each pass boundary; engines set a default only when the ambient
    origin is still {!Origin.seed} (standalone use). *)
val set_origin : t -> Origin.t -> unit

val current_origin : t -> Origin.t

(** [node_origin aig v] is the tag of node [v]. *)
val node_origin : t -> int -> Origin.t

(** [set_node_origin aig v o] re-stamps node [v] (rebuilds adopting
    per-node tags from a source network). *)
val set_node_origin : t -> int -> Origin.t -> unit

(** [note_created aig o n] adds [n] to origin [o]'s created count.
    Rebuilding engines use it to credit genuinely new logic built
    while creation counting is suspended (see {!begin_rebuild}). *)
val note_created : t -> Origin.t -> int -> unit

(** [begin_rebuild fresh ~from] prepares [fresh] (a newly created AIG)
    to be rebuilt from [from]: the interned origin table and created
    counts are carried over and creation counting is suspended, so the
    reconstruction adopts tags instead of inflating churn statistics.
    [end_rebuild] re-enables counting. {!compact} does this
    internally; {!Balance.run} and SOP round-trips use it directly. *)
val begin_rebuild : t -> from:t -> unit

val end_rebuild : t -> unit

(** [origin_stats aig] lists every origin with activity as
    [(origin, created, live)]: [created] counts AND constructions ever
    performed under the tag (speculative candidates included), [live]
    the reachable live ANDs currently carrying it. The [live] column
    sums to [size aig]. [live] can exceed [created] when a rebuild
    (e.g. SOP elimination) expands a pass's cone in place. *)
val origin_stats : t -> (Origin.t * int * int) list

(** [created_counts aig] is the [created] column of {!origin_stats}
    for the origins with any, in the same order, without its walk of
    the live cone: O(origins). *)
val created_counts : t -> (Origin.t * int) list

(** {1 Construction} *)

(** [create ()] is an empty AIG (constant node only). *)
val create : ?expected:int -> unit -> t

(** [copy aig] is a deep, independent copy. O(live): per-node arrays
    are copied only up to the allocated prefix, adjacency arenas are
    copied compacted, and the append-only origin intern tables are
    shared copy-on-write (the first new origin interned on either side
    takes a private copy). *)
val copy : t -> t

(** {1 Arena maintenance}

    The fanout and output-use side tables are packed CSR arenas
    (DESIGN.md §16): many small int lists in one shared buffer. A list
    that outgrows its slot relocates to the buffer tail and leaks its
    old slot until the next compaction. *)

(** [compact_arenas aig] repacks both adjacency arenas, reclaiming
    leaked slots. Contents and order are unchanged — invisible to all
    readers. Flow scripts call it at pass boundaries. *)
val compact_arenas : t -> unit

(** [arena_capacity_words aig] is the allocated footprint (in words)
    of both adjacency arena buffers; [arena_live_words aig] the words
    actually holding list elements. Their ratio feeds the
    [aig.arena_live_pct] gauge. *)
val arena_capacity_words : t -> int

val arena_live_words : t -> int

(** [add_input aig] appends a primary input and returns its literal. *)
val add_input : t -> lit

(** [band aig a b] returns the literal of [a AND b], reusing structure
    through the strash table and applying constant folding. *)
val band : t -> lit -> lit -> lit

(** Derived connectives built from {!band}. [bxor] costs up to 3 AND
    nodes, [bmux] up to 3. *)
val bor : t -> lit -> lit -> lit
val bxor : t -> lit -> lit -> lit
val bxnor : t -> lit -> lit -> lit
val bmux : t -> lit -> lit -> lit -> lit
(** [bmux aig sel t e] is [sel ? t : e]. *)

val band_list : t -> lit list -> lit
val bor_list : t -> lit list -> lit

(** [add_output aig l] registers a primary output; returns its index. *)
val add_output : t -> lit -> int

(** [set_output aig i l] redirects output [i] to literal [l]. *)
val set_output : t -> int -> lit -> unit

(** {1 Inspection} *)

val num_inputs : t -> int
val num_outputs : t -> int

(** [num_nodes aig] counts all allocated node slots (including dead
    ones); an upper bound for per-node arrays. *)
val num_nodes : t -> int

(** [size aig] is the number of live AND nodes reachable from the
    outputs — the paper's "size of the network". *)
val size : t -> int

(** [fold_hash aig] is a canonical 64-bit structural digest of the
    live cone: a bottom-up fold from the outputs in which every node
    hashes from its fanins' hashes (never from node ids), the two
    fanin hashes combine smallest-first, and a complemented edge
    perturbs the fanin hash with a fixed mask. The digest is invariant
    under {!copy}, {!compact}, and dead-node garbage, and changes
    (with overwhelming probability) under any functional edit to a
    live gate. It is the structure component of the determinism audit
    trail (DESIGN.md §9). *)
val fold_hash : t -> int64

val input_lit : t -> int -> lit
val output_lit : t -> int -> lit
val outputs : t -> lit array

val is_input : t -> int -> bool
val is_and : t -> int -> bool
val is_dead : t -> int -> bool

(** [input_index aig n] is the position of PI node [n]. *)
val input_index : t -> int -> int

val fanin0 : t -> int -> lit
val fanin1 : t -> int -> lit

(** [nref aig n] is the number of live references to node [n] (fanin
    references from live ANDs plus output references). *)
val nref : t -> int -> int

(** [fanout_nodes aig n] is the list of live AND nodes referencing
    [n] (each listed once even if both fanins point at [n]). *)
val fanout_nodes : t -> int -> int list

(** [iter_fanout_nodes aig n f] is [List.iter f (fanout_nodes aig n)]
    without building the list, for an [f] that does not edit [aig]. *)
val iter_fanout_nodes : t -> int -> (int -> unit) -> unit

(** {1 Orderings and cones} *)

(** [topo aig] is the array of live node ids (inputs and ANDs) in a
    topological order (fanins before fanouts). *)
val topo : t -> int array

(** [levels aig] is a per-node-id level map (inputs at 0); dead nodes
    map to -1. *)
val levels : t -> int array

(** [depth aig] is the maximum output level. *)
val depth : t -> int

(** [in_tfi aig ~node ~root] is true if [node] lies in the transitive
    fanin cone of [root] (inclusive). *)
val in_tfi : t -> node:int -> root:int -> bool

(** [tfo_mark aig node] marks the transitive fanout of [node] in one
    walk and returns its membership test: [tfo_mark aig node v] is
    [in_tfi aig ~node ~root:v]. The marks have a stamp of their own,
    so other traversals leave them intact; the test holds until the
    next [tfo_mark] on [aig] or the next edit. *)
val tfo_mark : t -> int -> int -> bool

(** [mffc_size aig n] is the size of the maximum fanout-free cone of
    AND node [n]: the count of AND nodes that die if [n] is removed. *)
val mffc_size : t -> int -> int

(** [support aig n] is the list of input node ids in the TFI of [n]. *)
val support : t -> int -> int list

(** {1 Surgery} *)

(** [replace aig n l] redirects every reference to node [n] (fanins
    and outputs) to literal [l], then deletes [n]'s MFFC. Fanout nodes
    whose fanin pair becomes trivial or structurally equal to an
    existing node are merged recursively. The caller must guarantee
    [node_of l] is not in the TFO of [n] (checked with [in_tfi] on
    demand); violating this would create a cycle.
    @raise Invalid_argument if [n] is not a live AND node or if the
    replacement is self-referential. *)
val replace : t -> int -> lit -> unit

(** [delete_dangling aig n] recursively deletes AND node [n] if it has
    no references, releasing its cone. Safe to call on live nodes (a
    no-op). Used to discard speculatively built logic. *)
val delete_dangling : t -> int -> unit

(** [pin aig l] adds an artificial reference to [l]'s node, protecting
    a speculative candidate cone from {!delete_dangling} of a sibling
    candidate that shares structure with it. [unpin] releases the
    reference and collects the cone if it became unreferenced. Pins
    must be balanced before {!check} or {!replace} on the node. *)
val pin : t -> lit -> unit

(** [unpin ?collect aig l] releases a pin. With [collect = false] the
    cone is left dangling even at zero references (the normal state of
    a speculative candidate about to be committed or measured);
    default [true] collects it. *)
val unpin : ?collect:bool -> t -> lit -> unit

(** [compact aig] rebuilds the AIG keeping only live nodes reachable
    from the outputs, in topological order. Returns the new AIG and a
    map from old literals to new literals (query with
    [map old_lit]). *)
val compact : t -> t * (lit -> lit)

(** {1 Gain accounting}

    Exact bookkeeping for "gain >= 0" moves (paper, Section IV-A,
    footnote 1). *)

(** [mark_created aig] returns a checkpoint; [fresh_since aig cp] is
    the number of AND nodes allocated after the checkpoint that are
    currently referenced or dangling-but-allocated. *)
type checkpoint

val mark_created : t -> checkpoint
val fresh_since : t -> checkpoint -> int

(** [gain_of_replacement aig ~root ~candidate] computes the exact size
    change (old size - new size, positive = improvement) that
    {!replace}[ aig root candidate] would produce, without performing
    it. Accounts for sharing between the candidate cone and the MFFC
    of [root]. The candidate must already be built. *)
val gain_of_replacement : t -> root:int -> candidate:lit -> int

(** {1 Integrity} *)

(** [check aig] verifies structural invariants (refcount consistency,
    strash consistency, acyclicity); raises [Failure] with a
    description on violation. Used by the test-suite. *)
val check : t -> unit

(** {1 Pretty-printing} *)

val pp_stats : Format.formatter -> t -> unit
