(* Worker domains for partition-parallel analysis, scoped to one batch.

   [run] spawns its helper domains, lets them and the calling domain
   pull job indices from one atomic counter, and joins them before it
   returns, so no domain outlives a batch. An idle live domain is not
   free: OCaml 5 stops every domain at each minor collection, which
   slowed the purely sequential passes between batches, while a spawn
   plus join costs well under a millisecond per batch.

   Exception protocol: the first failing job (lowest index) wins.
   A failure flips [cancelled], which makes not-yet-started jobs
   no-ops; the caller re-raises the winning exception with its
   original backtrace once the batch has drained. *)

type t = { jobs : int }

let create ~jobs =
  if jobs < 1 then invalid_arg "Sbm_par.Pool.create: jobs must be >= 1";
  { jobs }

let global () = create ~jobs:(Jobs.get ())

let run (type a) t n (f : int -> a) : a array =
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then Array.init n f
  else begin
    let results : a option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let next = Atomic.make 0 in
    let cancelled = Atomic.make false in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (* Peak-heap high-water mark (Gc heap stats describe the shared
           major heap). set_max is an atomic max, so racing claims from
           several domains are fine — the ledger samples it per pass. *)
        Sbm_obs.Metrics.set_max Sbm_obs.Metrics.peak_heap_words
          (Gc.quick_stat ()).Gc.heap_words;
        (if not (Atomic.get cancelled) then
           match f i with
           | v -> results.(i) <- Some v
           | exception e ->
             errors.(i) <- Some (e, Printexc.get_raw_backtrace ());
             Atomic.set cancelled true);
        work ()
      end
    in
    let helpers = List.init (min (t.jobs - 1) (n - 1)) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join helpers;
    match Array.find_opt Option.is_some errors with
    | Some (Some (e, bt)) -> Printexc.raise_with_backtrace e bt
    | _ -> Array.map Option.get results
  end
