(* Prints the OCaml module that holds Synth's table of every function
   of at most four inputs, filled by the decomposition search. *)
let () =
  let table = Bytes.make Sbm_synth_search.Synth_search.table_bytes '\000' in
  Sbm_synth_search.Synth_search.fill table;
  print_string "(* Generated by lib/aig/search/gen_table.exe; do not edit. *)\n";
  Printf.printf "let data = %S\n" (Bytes.unsafe_to_string table)
