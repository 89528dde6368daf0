(* [Sbm_obs.Json], re-exported under the name the report views and
   bench/perf/smoke.ml use. *)
include Sbm_obs.Json
