(** Divergence auditor over determinism audit trails ([sbm audit]).

    Aligns two trails (read by {!Sbm_obs.Stream.load_trail}, or held in
    memory) positionally and reports the first record where any
    component differs. Each link's chain commits to the whole prefix,
    so that record is the first boundary (pass or partition merge)
    where the two runs' states disagreed. The drill-down names the
    diverging components and, from the counter vectors, the
    counters. *)

type component = Label | Structure | Counters | Bank | Seeds

type divergence = {
  index : int;  (** position of the first diverging record *)
  a : Sbm_obs.Stream.link option;
      (** [None] = trail A ended before [index] *)
  b : Sbm_obs.Stream.link option;
  components : component list;
      (** fields that disagree (only when both records are present) *)
  counter_diffs : (string * int option * int option) list;
      (** per-counter drill-down; empty when vectors were not carried *)
}

type outcome = Identical of int | Diverged of divergence

val compare_trails :
  Sbm_obs.Stream.link list -> Sbm_obs.Stream.link list -> outcome
(** First-divergence scan. Trails of different lengths diverge at the
    end of the shorter one. *)

val exit_code : outcome -> int
(** 0 = identical, 1 = diverged ([sbm diff] convention). *)

val describe : divergence -> string
(** One-line localization, e.g. for test failure messages:
    ["first diverging boundary: iteration-1/mspf/mspf-partition-2
    (merge record 17; structure)"]. *)

val pp : ?name_a:string -> ?name_b:string -> Format.formatter -> outcome -> unit
(** Human-readable audit report. *)
