(** The decomposition search's answer for every function of at most
    four inputs, generated at build time by [search/gen_table.exe]
    ({!Sbm_synth_search.Synth_search.fill}); [Synth] reads it. *)
val data : string
