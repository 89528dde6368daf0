(* Binary AIGER and the AIGER readers' error handling. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

(* --- binary AIGER --- *)

let test_binary_roundtrip () =
  let rng = Rng.create 411 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let data = Sbm_aig.Aiger.write_binary aig in
    let back = Sbm_aig.Aiger.read_binary data in
    Aig.check back;
    Helpers.assert_equiv_exhaustive ~msg:"binary aiger roundtrip" aig back
  done

let test_binary_vs_ascii () =
  let rng = Rng.create 412 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:3 rng in
  let from_ascii = Sbm_aig.Aiger.read (Sbm_aig.Aiger.write aig) in
  let from_binary = Sbm_aig.Aiger.read_binary (Sbm_aig.Aiger.write_binary aig) in
  Helpers.assert_equiv_exhaustive ~msg:"formats agree" from_ascii from_binary

let test_file_format_dispatch () =
  let rng = Rng.create 413 in
  let aig = Helpers.random_xor_aig ~inputs:5 ~gates:20 ~outputs:2 rng in
  let ascii_path = Filename.temp_file "sbm" ".aag" in
  let binary_path = Filename.temp_file "sbm" ".aig" in
  Sbm_aig.Aiger.write_file aig ascii_path;
  let oc = open_out_bin binary_path in
  output_string oc (Sbm_aig.Aiger.write_binary aig);
  close_out oc;
  let a = Sbm_aig.Aiger.read_file ascii_path in
  let b = Sbm_aig.Aiger.read_file binary_path in
  Sys.remove ascii_path;
  Sys.remove binary_path;
  Helpers.assert_equiv_exhaustive ~msg:"dispatch" a b

(* The readers stream files through a 64 KiB chunk buffer; a network
   whose serialization spans several chunks exercises refills landing
   mid-line (ASCII) and mid-varint (binary). Structural digests, not
   exhaustive simulation: the network is too wide for truth tables. *)
let test_streaming_multichunk () =
  (* A 40k-AND chain: every node feeds the single output, so the whole
     network serializes (a random AIG's reachable cone is tiny). *)
  let aig = Aig.create () in
  let ins = Array.init 16 (fun _ -> Aig.add_input aig) in
  let acc = ref (Aig.band aig ins.(0) ins.(1)) in
  for i = 0 to 39_999 do
    acc := Aig.band aig (Aig.lnot !acc) ins.(i mod 16)
  done;
  ignore (Aig.add_output aig !acc);
  let check_format write suffix reader_name =
    let path = Filename.temp_file "sbm_stream" suffix in
    let data = write aig in
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc;
    Alcotest.(check bool)
      (Printf.sprintf "%s: file spans chunks (%d bytes)" reader_name
         (String.length data))
      true
      (String.length data > 2 * 65536);
    let back = Sbm_aig.Aiger.read_file path in
    Sys.remove path;
    Aig.check back;
    (* The reader renumbers, so compare canonical digests. *)
    Alcotest.(check int64)
      (reader_name ^ ": digest survives the round trip")
      (Aig.fold_hash aig) (Aig.fold_hash back)
  in
  check_format Sbm_aig.Aiger.write ".aag" "ascii";
  check_format Sbm_aig.Aiger.write_binary ".aig" "binary"

(* Malformed inputs: each fixture must raise the reader's one error,
   through its string reader and through [read_file], and return after a
   bounded allocation however large the header's counts. *)
let malformed =
  [
    ("truncated file", `Ascii, "aag 3 2 0 1 1\n2\n4\n6\n", "truncated file");
    ("forward literal", `Ascii, "aag 4 2 0 1 2\n2\n4\n8\n6 8 4\n8 2 4\n",
     "line 5: literal 8 is used before it is defined");
    ("out-of-range literal", `Ascii, "aag 3 2 0 1 1\n2\n4\n6\n6 2 40\n",
     "line 5: literal 40 exceeds M = 3");
    ("out-of-range output", `Ascii, "aag 3 2 0 1 1\n2\n4\n99\n6 2 4\n",
     "line 4: literal 99 exceeds M = 3");
    ("negative literal", `Ascii, "aag 3 2 0 1 1\n2\n4\n6\n6 -2 4\n", "line 5: AND rhs");
    ("non-numeric literal", `Ascii, "aag 3 2 0 1 1\n2\n4\nsix\n6 2 4\n",
     "line 4: output literal");
    ("non-numeric header", `Ascii, "aag 3 two 0 1 1\n", "header field I");
    ("short header", `Ascii, "aag 3 2 0 1\n", "bad header");
    ("empty file", `Ascii, "", "missing header");
    ("complemented input", `Ascii, "aag 1 1 0 1 0\n3\n2\n", "line 2: complemented input");
    ("variable defined twice", `Ascii, "aag 3 2 0 1 1\n2\n2\n6\n6 2 2\n",
     "line 3: variable 1 is defined twice");
    ("counts exceed M", `Ascii, "aag 2 2 0 1 1\n2\n4\n6\n6 2 4\n", "exceeds M = 2");
    ("absurd M", `Ascii, "aag 999999999999 2 0 1 1\n", "truncated file");
    ("absurd counts", `Ascii, "aag 999999999999 0 0 999999999 999999999\n",
     "truncated file");
    ("huge number", `Ascii, "aag 99999999999999999999 2 0 1 1\n", "header field M");
    ("truncated varint", `Binary, "aig 3 2 0 1 1\n6\n\x82", "truncated varint");
    ("missing AND bytes", `Binary, "aig 3 2 0 1 1\n6\n", "truncated varint");
    ("bad deltas", `Binary, "aig 3 2 0 1 1\n6\n\x07\x00", "bad deltas");
    ("absurd M (binary)", `Binary, "aig 999999999999 2 0 1 1\n", "is not I + L + A");
    ("absurd inputs (binary)", `Binary, "aig 999999999999 999999999999 0 1 0\n2\n",
     "implicit inputs");
    ("latches (binary)", `Binary, "aig 1 0 1 0 0\n", "latches");
  ]

let test_malformed_aiger () =
  let allocated f =
    let s0 = Gc.quick_stat () in
    let r = f () in
    let s1 = Gc.quick_stat () in
    let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
    (r, words s1 -. words s0)
  in
  let contains msg sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1)) in
    at 0
  in
  let expect_error name what expected f =
    let r, words =
      allocated (fun () ->
          match f () with
          | _ -> Error "accepted"
          | exception Sbm_aig.Aiger.Error msg -> Ok msg
          | exception e -> Error (Printexc.to_string e))
    in
    (match r with
    | Ok msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s): one-line message naming %S: %S" name what expected msg)
        true
        (contains msg expected && not (String.contains msg '\n'))
    | Error e -> Alcotest.failf "%s (%s): expected Aiger.Error, got %s" name what e);
    Alcotest.(check bool)
      (Printf.sprintf "%s (%s): bounded allocation (%.0f words)" name what words)
      true (words < 1e6)
  in
  List.iter
    (fun (name, format, data, expected) ->
      let reader =
        match format with
        | `Ascii -> Sbm_aig.Aiger.read
        | `Binary -> Sbm_aig.Aiger.read_binary
      in
      expect_error name "string" expected (fun () -> reader data);
      let path = Filename.temp_file "sbm_malformed" ".aig" in
      Out_channel.with_open_bin path (fun oc -> output_string oc data);
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          expect_error name "file" expected (fun () -> Sbm_aig.Aiger.read_file path)))
    malformed

let suite =
  [
    Alcotest.test_case "binary aiger roundtrip" `Quick test_binary_roundtrip;
    Alcotest.test_case "binary vs ascii" `Quick test_binary_vs_ascii;
    Alcotest.test_case "file format dispatch" `Quick test_file_format_dispatch;
    Alcotest.test_case "streaming reader spans chunks" `Quick
      test_streaming_multichunk;
    Alcotest.test_case "malformed aiger raises the reader error" `Quick
      test_malformed_aiger;
  ]
