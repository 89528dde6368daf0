(** Post-mortem dump rendering ([sbm inspect]).

    Renders a {!Sbm_obs.Postmortem.dump} (read by
    {!Sbm_obs.Postmortem.load}) for a human: what the run was doing
    (open span stack), what the watchdog concluded, and the tail of the
    flight-recorder timeline. *)

(** [pp ?last ?abs ppf dump] renders the human report: header, open
    span stack, every watchdog verdict event, the last [last] (default
    20) of the other events, and non-zero counters. Timestamps print as deltas
    from run start ("+123.4 ms"); with [abs] they print the absolute
    monotonic clock in ns instead (falling back to deltas for dumps
    that predate [t0_ns]). *)
val pp :
  ?last:int -> ?abs:bool -> Format.formatter -> Sbm_obs.Postmortem.dump -> unit
