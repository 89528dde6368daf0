(** Divergence auditor over determinism audit trails ([sbm audit]).

    Aligns two fingerprint trails ({!Sbm_obs.Fingerprint.load}ed JSONL
    streams or in-process record lists) positionally and reports the
    {e first} record where any deterministic component differs —
    because each record's chain commits to the whole prefix, that
    record is exactly the first boundary (pass or partition merge)
    where the two runs' states disagreed. The drill-down names the
    diverging components (structure vs counters vs bank vs seeds) and,
    when the counter vectors are present, the individual counters. *)

type component = Label | Structure | Counters | Bank | Seeds

val component_to_string : component -> string

type divergence = {
  index : int;  (** position of the first diverging record *)
  a : Sbm_obs.Fingerprint.record option;
      (** [None] = trail A ended before [index] *)
  b : Sbm_obs.Fingerprint.record option;
  components : component list;
      (** fields that disagree (only when both records are present) *)
  counter_diffs : (string * int option * int option) list;
      (** per-counter drill-down; empty when vectors were not carried *)
}

type outcome = Identical of int | Diverged of divergence

val compare_trails :
  Sbm_obs.Fingerprint.record list ->
  Sbm_obs.Fingerprint.record list ->
  outcome
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
