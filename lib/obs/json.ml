type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          (* \uXXXX: decode the code point as a raw byte when < 256
             (our writers only escape control characters). *)
          if !pos + 4 >= n then raise (Bad "truncated \\u escape");
          let hex = String.sub s (!pos + 1) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> Buffer.add_char buf (Char.chr (code land 0xff))
          | None -> raise (Bad "bad \\u escape"));
          pos := !pos + 4
        | Some c -> Buffer.add_char buf c
        | None -> raise (Bad "bad escape"));
        advance ();
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> raise (Bad (Printf.sprintf "bad number at %d" start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> raise (Bad "expected , or } in object")
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> raise (Bad "expected , or ] in array")
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> raise (Bad "empty input")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage");
  v

(* Read a whole channel with a chunked loop rather than
   [in_channel_length]: the length probe fails on pipes, and "-"
   (stdin) is exactly the piped case. *)
let read_all ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let read_source source =
  if source = "-" then Ok (read_all stdin)
  else
    match open_in_bin source with
    | exception Sys_error msg -> Error msg
    | ic -> Ok (Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_all ic))

let load_lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src ->
    Ok
      (String.split_on_char '\n' src
      |> List.filter_map (fun line ->
             match parse line with v -> Some v | exception Bad _ -> None))

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Some (Num f) -> Some f | _ -> None
let to_int = function Some (Num f) -> Some (int_of_float f) | _ -> None
let to_str = function Some (Str s) -> Some s | _ -> None
let to_bool = function Some (Bool b) -> Some b | _ -> None
let to_list = function Some (List l) -> l | _ -> []
let to_obj = function Some (Obj l) -> l | _ -> []

(* --- typed-reader helpers: a missing or mistyped member reads as the
   default --- *)

let str ?(default = "") key j = Option.value ~default (to_str (member key j))
let int ?(default = 0) key j = Option.value ~default (to_int (member key j))
let num ?(default = 0.0) key j = Option.value ~default (to_float (member key j))
let flag key j = Option.value ~default:false (to_bool (member key j))

let counters key j =
  List.filter_map
    (fun (k, v) -> Option.map (fun n -> (k, n)) (to_int (Some v)))
    (to_obj (member key j))

let ms_of_ns ns = Int64.to_float ns /. 1e6
let ns_of_ms ms = Int64.of_float (Float.round (ms *. 1e6))
(* Through the writer's own format, so halfway cases round as it does. *)
let written_ms ms = float_of_string (Printf.sprintf "%.3f" ms)

(* --- writer --- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let buf_list b f xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    xs;
  Buffer.add_char b ']'

let buf_obj b f members =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (escape k));
      f b v)
    members;
  Buffer.add_char b '}'

let buf_counters b =
  buf_obj b (fun b v -> Buffer.add_string b (string_of_int v))
