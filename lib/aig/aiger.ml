let write aig =
  let buf = Buffer.create 4096 in
  let order = Aig.topo aig in
  let ninputs = Aig.num_inputs aig in
  let nands = Aig.size aig in
  (* Renumber: input i gets variable i+1; ANDs follow topologically. *)
  let var_of = Array.make (Aig.num_nodes aig) (-1) in
  for i = 0 to ninputs - 1 do
    var_of.(Aig.node_of (Aig.input_lit aig i)) <- i + 1
  done;
  let next = ref (ninputs + 1) in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        var_of.(v) <- !next;
        incr next
      end)
    order;
  let maxvar = !next - 1 in
  let lit_out l =
    let v = Aig.node_of l in
    let base = if v = 0 then 0 else 2 * var_of.(v) in
    base lor (l land 1)
  in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" maxvar ninputs (Aig.num_outputs aig) nands);
  for i = 0 to ninputs - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (2 * (i + 1)))
  done;
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit_out l)))
    (Aig.outputs aig);
  Array.iter
    (fun v ->
      if Aig.is_and aig v then
        Buffer.add_string buf
          (Printf.sprintf "%d %d %d\n" (2 * var_of.(v))
             (lit_out (Aig.fanin0 aig v))
             (lit_out (Aig.fanin1 aig v))))
    order;
  Buffer.contents buf

let write_file aig path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write aig))

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* --- streaming byte source ---

   Both readers pull bytes through a fixed-size chunk buffer, so
   parsing a file never materializes its contents as one string: peak
   reader memory is one chunk plus the current line. The same source
   serves in-memory strings (tests, round-trips) and channels. *)

type source = {
  refill : bytes -> int;
  (* Fill the chunk from the underlying producer; 0 means EOF. *)
  chunk : bytes;
  mutable pos : int;
  mutable avail : int; (* -1 once the producer is exhausted *)
  mutable line : int; (* lines read so far, for error messages *)
}

let chunk_size = 65536

let source_of_channel ic =
  let chunk = Bytes.create chunk_size in
  { refill = (fun b -> input ic b 0 (Bytes.length b)); chunk; pos = 0; avail = 0; line = 0 }

let source_of_string s =
  (* The string is already resident; serve it as the one chunk. *)
  { refill = (fun _ -> 0); chunk = Bytes.of_string s; pos = 0; avail = String.length s;
    line = 0 }

let next_byte src =
  if src.pos < src.avail then begin
    let c = Bytes.get_uint8 src.chunk src.pos in
    src.pos <- src.pos + 1;
    c
  end
  else if src.avail < 0 then -1
  else begin
    let n = src.refill src.chunk in
    if n = 0 then begin
      src.avail <- -1;
      -1
    end
    else begin
      src.pos <- 1;
      src.avail <- n;
      Bytes.get_uint8 src.chunk 0
    end
  end

(* One line, newline excluded; [None] at end of input. *)
let next_line src =
  let b = Buffer.create 32 in
  let rec go () =
    match next_byte src with
    | -1 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | 0x0A -> Some (Buffer.contents b)
    | c ->
      Buffer.add_char b (Char.chr c);
      go ()
  in
  let l = go () in
  if l <> None then src.line <- src.line + 1;
  l

(* Non-blank line, trimmed (tolerates \r\n and stray blank lines),
   split into its space-separated fields. *)
let rec next_fields src what =
  match next_line src with
  | None -> fail "truncated file: missing %s" what
  | Some l ->
    let l = String.trim l in
    if l = "" then next_fields src what
    else List.filter (( <> ) "") (String.split_on_char ' ' l)

(* A header count or a literal: a plain decimal number, short enough
   that twice it plus one cannot overflow. *)
let nat src what tok =
  if
    tok = "" || String.length tok > 18
    || not (String.for_all (fun c -> c >= '0' && c <= '9') tok)
  then fail "line %d: %s is not a non-negative decimal number: %S" src.line what tok;
  int_of_string tok

let one_literal src what =
  match next_fields src what with
  | [ l ] -> nat src what l
  | _ -> fail "line %d: expected one %s" src.line what

type header = { maxvar : int; ninputs : int; noutputs : int; nands : int }

(* The header is checked before anything is allocated for it: a count
   only ever sizes memory once the file has backed it with data. *)
let header src magic =
  match next_fields src "header" with
  | [ tag; m; i; l; o; a ] when tag = magic ->
    let n what tok = nat src ("header field " ^ what) tok in
    let h = { maxvar = n "M" m; ninputs = n "I" i; noutputs = n "O" o; nands = n "A" a } in
    if n "L" l <> 0 then fail "latches are not supported (L = %s)" l;
    h
  | _ -> fail "bad header: expected \"%s M I L O A\"" magic

(* Variable -> literal of the network under construction. A hash table
   grows with the variables the file actually defines, however large
   the header's M. *)
let new_map () =
  let map = Hashtbl.create 1024 in
  Hashtbl.replace map 0 Aig.const0;
  map

(* [where] names the place of the literal in the file. *)
let lit_in map h where l =
  if l / 2 > h.maxvar then fail "%s: literal %d exceeds M = %d" (where ()) l h.maxvar;
  match Hashtbl.find_opt map (l / 2) with
  | Some x -> x lxor (l land 1)
  | None -> fail "%s: literal %d is used before it is defined" (where ()) l

let at_line line () = Printf.sprintf "line %d" line

(* Output literals may reference AND variables defined below them;
   they are held, with their lines, until the AND section has streamed
   past. *)
let read_outputs src h =
  List.init h.noutputs (fun _ ->
      let l = one_literal src "output literal" in
      (l, src.line))

let add_outputs aig map h outs =
  List.iter (fun (l, line) -> ignore (Aig.add_output aig (lit_in map h (at_line line) l))) outs

let read_ascii src =
  let h = header src "aag" in
  if h.ninputs + h.nands > h.maxvar then
    fail "header: I + L + A = %d exceeds M = %d" (h.ninputs + h.nands) h.maxvar;
  let aig = Aig.create () in
  let map = new_map () in
  let define what l x =
    if l mod 2 <> 0 then fail "line %d: complemented %s literal %d" src.line what l;
    if l = 0 || l / 2 > h.maxvar then
      fail "line %d: %s literal %d is out of range (M = %d)" src.line what l h.maxvar;
    if Hashtbl.mem map (l / 2) then
      fail "line %d: variable %d is defined twice" src.line (l / 2);
    Hashtbl.replace map (l / 2) (x ())
  in
  for _ = 1 to h.ninputs do
    define "input" (one_literal src "input literal") (fun () -> Aig.add_input aig)
  done;
  let outs = read_outputs src h in
  (* AND definitions must come after their fanins' definitions, so
     processing them in file order resolves every fanin. *)
  for _ = 1 to h.nands do
    match next_fields src "AND line" with
    | [ lhs; rhs0; rhs1 ] ->
      let lit what tok = nat src what tok in
      let lhs = lit "AND lhs" lhs in
      let f0 = lit_in map h (at_line src.line) (lit "AND rhs" rhs0) in
      let f1 = lit_in map h (at_line src.line) (lit "AND rhs" rhs1) in
      define "AND lhs" lhs (fun () -> Aig.band aig f0 f1)
    | _ -> fail "line %d: expected an AND line \"lhs rhs0 rhs1\"" src.line
  done;
  add_outputs aig map h outs;
  aig

let read s = read_ascii (source_of_string s)

(* Binary AIGER: inputs are implicit (variables 1..I) and the AND
   section stores, for each AND in variable order, the two differences
   (lhs - rhs0) and (rhs0 - rhs1) as LEB128-style 7-bit varints. *)

(* Implicit inputs cost no bytes, so only this bound keeps a header
   from allocating them on its word alone. *)
let max_binary_inputs = 1 lsl 20

let write_varint buf x =
  let x = ref x in
  while !x >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!x land 0x7f)));
    x := !x lsr 7
  done;
  Buffer.add_char buf (Char.chr !x)

let write_binary aig =
  let buf = Buffer.create 4096 in
  let order = Aig.topo aig in
  let ninputs = Aig.num_inputs aig in
  let nands = Aig.size aig in
  let var_of = Array.make (Aig.num_nodes aig) (-1) in
  for i = 0 to ninputs - 1 do
    var_of.(Aig.node_of (Aig.input_lit aig i)) <- i + 1
  done;
  let next = ref (ninputs + 1) in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        var_of.(v) <- !next;
        incr next
      end)
    order;
  let maxvar = !next - 1 in
  let lit_out l =
    let v = Aig.node_of l in
    let base = if v = 0 then 0 else 2 * var_of.(v) in
    base lor (l land 1)
  in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d 0 %d %d\n" maxvar ninputs (Aig.num_outputs aig) nands);
  (* In binary mode, input literals are implicit. *)
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit_out l)))
    (Aig.outputs aig);
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        let lhs = 2 * var_of.(v) in
        let r0 = lit_out (Aig.fanin0 aig v) in
        let r1 = lit_out (Aig.fanin1 aig v) in
        (* The format requires lhs > rhs0 >= rhs1. *)
        let r0, r1 = if r0 >= r1 then (r0, r1) else (r1, r0) in
        write_varint buf (lhs - r0);
        write_varint buf (r0 - r1)
      end)
    order;
  Buffer.contents buf

let read_binary_source src =
  let h = header src "aig" in
  if h.maxvar <> h.ninputs + h.nands then
    fail "header: M = %d is not I + L + A = %d" h.maxvar (h.ninputs + h.nands);
  if h.ninputs > max_binary_inputs then
    fail "header declares %d implicit inputs; at most %d are supported" h.ninputs
      max_binary_inputs;
  let outs = read_outputs src h in
  let read_varint i =
    let rec go x shift =
      let byte = next_byte src in
      if byte < 0 then fail "truncated varint in AND %d of %d" (i + 1) h.nands;
      if shift > 56 then fail "varint overflow in AND %d of %d" (i + 1) h.nands;
      let x = x lor ((byte land 0x7f) lsl shift) in
      if byte < 0x80 then x else go x (shift + 7)
    in
    go 0 0
  in
  let aig = Aig.create () in
  let map = new_map () in
  for i = 1 to h.ninputs do
    Hashtbl.replace map i (Aig.add_input aig)
  done;
  for i = 0 to h.nands - 1 do
    let lhs = 2 * (h.ninputs + 1 + i) in
    let d0 = read_varint i in
    let d1 = read_varint i in
    let r0 = lhs - d0 in
    let r1 = r0 - d1 in
    if d0 = 0 || r1 < 0 then fail "bad deltas %d, %d in AND %d of %d" d0 d1 (i + 1) h.nands;
    let where () = Printf.sprintf "AND %d of %d" (i + 1) h.nands in
    Hashtbl.replace map (lhs / 2) (Aig.band aig (lit_in map h where r0) (lit_in map h where r1))
  done;
  add_outputs aig map h outs;
  aig

let read_binary s = read_binary_source (source_of_string s)

(* Streamed: the file is parsed through a chunked source, never
   slurped into one string — peak reader memory during load is one
   64 KiB chunk regardless of file size. Format detection peeks the
   first bytes of the first chunk. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let src = source_of_channel ic in
      src.avail <- src.refill src.chunk;
      if src.avail = 0 then src.avail <- -1;
      let binary =
        src.avail >= 4 && Bytes.sub_string src.chunk 0 4 = "aig "
      in
      if binary then read_binary_source src else read_ascii src)
