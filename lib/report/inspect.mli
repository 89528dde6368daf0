(** Post-mortem dump rendering ([sbm inspect]). *)

(** [pp ?last ?abs ppf dump] renders a {!Sbm_obs.Postmortem.dump} for
    a human: header, open span stack, every watchdog verdict, the last
    [last] (default 20) of the other records, and non-zero counters.
    Timestamps print as deltas from run start ("+123.4 ms"); with [abs]
    they print the absolute monotonic clock in ns instead (falling back
    to deltas for dumps that predate [t0_ns]). *)
val pp :
  ?last:int -> ?abs:bool -> Format.formatter -> Sbm_obs.Postmortem.dump -> unit
