(** [sbm top] — live dashboard over a [--status] JSONL file.

    The run rewrites the status file whole via atomic rename, so every
    read sees a complete history ({!Sbm_obs.Status.load}): one
    sample per line, oldest first. *)

val render : ?prev:Sbm_obs.Status.sample -> Sbm_obs.Status.sample -> string
(** One plain-text screenful for a sample: header, open-span path,
    non-zero counters with per-second rates derived from [prev], then
    gauges. Pure — no ANSI control sequences. *)

val run : ?refresh_ms:float -> ?once:bool -> string -> int
(** Poll [path] every [refresh_ms] (default 500) and redraw, clearing
    the screen between frames when stdout is a TTY. Returns the
    process exit code: 0 once the run's [finished] sample appears (or
    immediately with [once]); 2 when [once] finds no readable
    sample file. While looping, a missing file means the run has not
    started yet — keeps waiting. *)
