(** Two-level sum-of-products algebra.

    Cubes are sorted arrays of integer literals ([2*var + 1] for the
    complemented phase); a cover is a list of cubes interpreted as
    their disjunction, [[]] being constant 0 and [[| |] :: _] (an
    empty cube) making the cover constant 1. Variables are opaque
    integers — the multi-level network uses node ids.

    This module carries the algebraic machinery behind kernel
    extraction and node elimination (paper, Section IV-B): weak
    division, kernels/co-kernels, cover complementation and literal
    bookkeeping. *)

type cube = int array
type cover = cube list

(** {1 Literals} *)

val lit_of : int -> bool -> int
val var_of : int -> int
val lit_compl : int -> int
val lit_is_compl : int -> bool

(** {1 Cubes} *)

(** [cube_of_list lits] sorts and validates a literal list.
    @raise Invalid_argument on duplicate or opposing literals. *)
val cube_of_list : int list -> cube

(** [cube_mul a b] is the conjunction, or [None] when [a] and [b]
    contain opposing literals. *)
val cube_mul : cube -> cube -> cube option

(** [cube_contains a b] is true when [b]'s literals all occur in [a]
    (so cube [a] implies cube [b]). *)
val cube_contains : cube -> cube -> bool

(** [cube_div a b] removes [b]'s literals from [a]; [None] if [b] is
    not contained in [a]. *)
val cube_div : cube -> cube -> cube option

(** [common_cube cover] is the largest cube dividing every cube of the
    cover (the empty cube when none). *)
val common_cube : cover -> cube

(** {1 Covers} *)

(** [normalize cover] sorts cubes, removes duplicates and
    single-cube-contained cubes (absorption). *)
val normalize : cover -> cover

(** [normalize_bounded ~max_cubes cover] is [Some (normalize cover)]
    when that has at most [max_cubes] cubes and [None] otherwise,
    without finishing the absorption pass in the [None] case. *)
val normalize_bounded : max_cubes:int -> cover -> cover option

val is_const0 : cover -> bool
val is_const1 : cover -> bool

(** [num_lits cover] is the total literal count, the area metric of
    the elimination / extraction engines. *)
val num_lits : cover -> int

(** [support cover] is the sorted list of variables appearing. *)
val support : cover -> int list

(** [divide_by_cube cover c] is the quotient of algebraic division by
    a cube: all cubes containing [c], with [c] removed. *)
val divide_by_cube : cover -> cube -> cover

(** [divide cover d] is algebraic (weak) division by cover [d]:
    returns [(quotient, remainder)] with
    [cover = quotient * d + remainder] and quotient maximal. *)
val divide : cover -> cover -> cover * cover

(** [mul a b] is the algebraic product (inconsistent cubes dropped). *)
val mul : cover -> cover -> cover

(** [is_cube_free cover] is true when no non-trivial cube divides all
    cubes. *)
val is_cube_free : cover -> bool

(** [kernels cover] enumerates the kernels of the cover together with
    one co-kernel each. The cover itself is included (with the empty
    co-kernel) when cube-free. Level-0 kernels have no kernels other
    than themselves. *)
val kernels : cover -> (cover * cube) list

(** [kernels_bounded ~limit cover] stops after [limit] kernels. *)
val kernels_bounded : limit:int -> cover -> (cover * cube) list

(** [complement ~max_cubes cover] computes a cover of the Boolean
    complement by Shannon recursion, or [None] when the result would
    exceed [max_cubes] cubes. *)
val complement : max_cubes:int -> cover -> cover option

(** [cofactor cover l] is the cover with literal [l] set true: cubes
    with [lit_compl l] dropped, [l] removed elsewhere. *)
val cofactor : cover -> int -> cover

(** [eval cover assignment] evaluates the cover; [assignment v] gives
    the value of variable [v]. *)
val eval : cover -> (int -> bool) -> bool

(** [canonical cover] is a canonical form usable as a hash key (cubes
    sorted, deduplicated). *)
val canonical : cover -> cube list

(** {1 Two-level minimization}

    A compact Espresso-style loop: literal expansion against the
    cover, absorption, and irredundant-cover extraction. All steps are
    exact (tautology-based) and preserve the function. *)

(** [tautology cover] decides whether the cover is the constant-1
    function, by Shannon recursion with unate shortcuts. *)
val tautology : cover -> bool

(** [cube_covered cover c] is true when cube [c] is contained in the
    cover (i.e. [cover] cofactored by [c] is a tautology). *)
val cube_covered : cover -> cube -> bool

(** [expand cover] greedily removes literals from cubes while the
    enlarged cube stays inside the cover. *)
val expand : cover -> cover

(** [irredundant cover] drops cubes covered by the union of the
    others. *)
val irredundant : cover -> cover

(** [minimize cover] is [irredundant (normalize (expand cover))]. *)
val minimize : cover -> cover
