(* Tests for base64 and the bundle artifact format. *)

open Feam_util
open Feam_sysmodel
open Feam_core

(* -- Base64 ----------------------------------------------------------------- *)

let test_base64_vectors () =
  (* RFC 4648 test vectors *)
  List.iter
    (fun (plain, encoded) ->
      Alcotest.(check string) ("encode " ^ plain) encoded (Base64.encode plain);
      Alcotest.(check string) ("decode " ^ encoded) plain (Result.get_ok (Base64.decode encoded)))
    [
      ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v");
      ("foob", "Zm9vYg=="); ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy");
    ]

let test_base64_binary () =
  let all_bytes = String.init 256 Char.chr in
  Alcotest.(check string) "all byte values" all_bytes
    (Result.get_ok (Base64.decode (Base64.encode all_bytes)))

let test_base64_rejects () =
  (match Base64.decode "abc" with
  | Error Base64.Bad_length -> ()
  | _ -> Alcotest.fail "expected Bad_length");
  match Base64.decode "ab!=" with
  | Error (Base64.Bad_character '!') -> ()
  | _ -> Alcotest.fail "expected Bad_character"

let gen_bytes = QCheck.Gen.(map Bytes.to_string (bytes_size (int_range 0 512)))

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64: roundtrip" ~count:300
    (QCheck.make ~print:String.escaped gen_bytes) (fun s ->
      Base64.decode (Base64.encode s) = Ok s)

let prop_base64_length =
  QCheck.Test.make ~name:"base64: output length" ~count:300
    (QCheck.make ~print:String.escaped gen_bytes) (fun s ->
      String.length (Base64.encode s) = (String.length s + 2) / 3 * 4)

(* -- Bundle round trip --------------------------------------------------------- *)

let make_bundle () =
  let site, installs = Fixtures.small_site () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
  in
  let env = Fixtures.session_env site install in
  Fixtures.run_exn
    (Phases.source_phase Config.default site env ~binary_path:path)

let parse_exn text =
  Fixtures.run_exn
    (Result.map_error Bundle_io.load_error_to_string (Bundle_io.parse text))

let test_bundle_roundtrip () =
  let bundle = make_bundle () in
  let text = Bundle_io.render bundle in
  Alcotest.(check bool) "has magic" true
    (String.starts_with ~prefix:"FEAM-BUNDLE 1" text);
  let bundle' = parse_exn text in
  Alcotest.(check string) "created at" bundle.Bundle.created_at
    bundle'.Bundle.created_at;
  let binary_bytes b =
    Option.map Feam_elf.Reader.image_bytes b.Bundle.binary_image
  in
  Alcotest.(check (option string)) "binary bytes" (binary_bytes bundle)
    (binary_bytes bundle');
  Alcotest.(check int) "copy count" (List.length bundle.Bundle.copies)
    (List.length bundle'.Bundle.copies);
  Alcotest.(check int) "probe count" (List.length bundle.Bundle.probes)
    (List.length bundle'.Bundle.probes);
  Alcotest.(check int) "library bytes" (Bundle.library_bytes bundle)
    (Bundle.library_bytes bundle');
  (* descriptions survive with derived fields recomputed *)
  let d = bundle.Bundle.binary_description
  and d' = bundle'.Bundle.binary_description in
  Alcotest.(check (list string)) "needed" d.Description.needed d'.Description.needed;
  Alcotest.(check bool) "required glibc" true
    (d.Description.required_glibc = d'.Description.required_glibc);
  Alcotest.(check bool) "mpi ident survives" true
    ((d.Description.mpi <> None) = (d'.Description.mpi <> None));
  (* copy bytes are identical after the round trip *)
  List.iter2
    (fun (a : Bdc.library_copy) (b : Bdc.library_copy) ->
      Alcotest.(check string) "copy request" a.Bdc.copy_request b.Bdc.copy_request;
      Alcotest.(check bool) "copy bytes equal" true
        (Feam_elf.Reader.image_bytes a.Bdc.copy_image
        = Feam_elf.Reader.image_bytes b.Bdc.copy_image))
    bundle.Bundle.copies bundle'.Bundle.copies;
  (* source discovery survives *)
  Alcotest.(check bool) "discovery glibc" true
    (bundle.Bundle.source_discovery.Discovery.glibc
    = bundle'.Bundle.source_discovery.Discovery.glibc)

let test_parsed_bundle_usable_for_target_phase () =
  (* the deserialized bundle drives a target phase exactly like the
     original *)
  let bundle = make_bundle () in
  let bundle' = parse_exn (Bundle_io.render bundle) in
  let target, _ = Fixtures.small_site ~name:"t2" ~glibc:"2.12" () in
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let report =
    Fixtures.run_exn
      (Phases.target_phase Config.default target (Site.base_env target)
         ~bundle:bundle' ())
  in
  Alcotest.(check bool) "evaluates" true
    (Predict.is_ready (Report.prediction report)
    || Predict.reasons (Report.prediction report) <> [])

let test_parse_rejects_garbage () =
  Alcotest.(check bool) "no magic" true (Result.is_error (Bundle_io.parse "hello"));
  Alcotest.(check bool) "empty" true (Result.is_error (Bundle_io.parse ""));
  Alcotest.(check bool) "missing description" true
    (Result.is_error (Bundle_io.parse ("FEAM-BUNDLE 1" ^ "\ncreated-at: x\n")))

let test_parse_bad_line () =
  let text = "FEAM-BUNDLE 1" ^ "\ncreated-at: x\nnot a key value line\n" in
  match Bundle_io.parse text with
  | Error e -> Alcotest.(check bool) "line number" true
      (Str_split.contains ~sub:"line 3" (Bundle_io.load_error_to_string e))
  | Ok _ -> Alcotest.fail "expected parse error"

(* -- Loader hardening: entry names that collide or escape ---------------------- *)

let test_parse_accepts_clean () =
  let bundle = make_bundle () in
  match Bundle_io.parse (Bundle_io.render bundle) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Bundle_io.load_error_to_string e)

let test_parse_rejects_duplicate_copy () =
  let bundle = make_bundle () in
  let dup =
    match bundle.Bundle.copies with
    | c :: _ as copies -> { bundle with Bundle.copies = c :: copies }
    | [] -> Alcotest.fail "fixture bundle has no copies"
  in
  match Bundle_io.parse (Bundle_io.render dup) with
  | Error (Bundle_io.Unsafe_entry { issue = Bundle_io.Duplicate; name; _ }) ->
    Alcotest.(check string) "names the colliding entry"
      (List.hd bundle.Bundle.copies).Bdc.copy_request name
  | Error e -> Alcotest.failf "wrong error: %s" (Bundle_io.load_error_to_string e)
  | Ok _ -> Alcotest.fail "duplicate entry accepted"

let test_parse_rejects_traversal_probe () =
  let bundle = make_bundle () in
  let evil =
    {
      bundle with
      Bundle.probes =
        List.map
          (fun p -> { p with Bundle.probe_name = "../" ^ p.Bundle.probe_name })
          bundle.Bundle.probes;
    }
  in
  if evil.Bundle.probes = [] then Alcotest.fail "fixture bundle has no probes";
  match Bundle_io.parse (Bundle_io.render evil) with
  | Error (Bundle_io.Unsafe_entry { issue = Bundle_io.Traversal; name; _ }) ->
    Alcotest.(check bool) "names the escaping entry" true
      (Bundle_io.name_traverses name)
  | Error e -> Alcotest.failf "wrong error: %s" (Bundle_io.load_error_to_string e)
  | Ok _ -> Alcotest.fail "traversal entry accepted"

(* -- One container, one strict rule ------------------------------------------ *)

(* Rewrite the first line starting with [key] in the first [section]:
   [Some line] replaces it, [None] deletes it. *)
let damage section key repl text =
  let inside = ref false and hit = ref false in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "[" ^ section ^ "]" then inside := true;
         if !inside && (not !hit) && String.starts_with ~prefix:(key ^ ": ") line
         then begin
           hit := true;
           repl
         end
         else Some line)
  |> String.concat "\n"

let expect_malformed ~sub = function
  | Error (Bundle_io.Malformed m) ->
    Alcotest.(check bool) (Printf.sprintf "%S mentions %s" m sub) true
      (Str_split.contains ~sub m)
  | Error e -> Alcotest.failf "wrong error: %s" (Bundle_io.load_error_to_string e)
  | Ok _ -> Alcotest.failf "damaged artifact accepted (expected %s)" sub

let test_damaged section key repl () =
  let text = Bundle_io.render (make_bundle ()) in
  let damaged = damage section key repl text in
  Alcotest.(check bool) (Printf.sprintf "fixture has a [%s] %s" section key)
    false (String.equal text damaged);
  expect_malformed ~sub:("[" ^ section ^ "]") (Bundle_io.parse damaged)

(* A [discovery] glibc too long for an int is no version: the parse
   returns, with no glibc, instead of raising. *)
let test_overlong_glibc () =
  let text = Bundle_io.render (make_bundle ()) in
  let damaged =
    damage "discovery" "glibc" (Some "glibc: 2.99999999999999999999") text
  in
  Alcotest.(check bool) "fixture has a [discovery] glibc" false
    (String.equal text damaged);
  match Bundle_io.parse damaged with
  | Ok b ->
    Alcotest.(check bool) "no glibc" true
      (b.Bundle.source_discovery.Discovery.glibc = None)
  | Error e -> Alcotest.failf "rejected: %s" (Bundle_io.load_error_to_string e)

let test_manifest_magic_named () =
  match Bundle_io.parse_manifest "created-at: x\n" with
  | Error e ->
    Alcotest.(check bool) "names FEAM-MANIFEST" true
      (Str_split.contains ~sub:"FEAM-MANIFEST" (Bundle_io.load_error_to_string e))
  | Ok _ -> Alcotest.fail "manifest without magic accepted"

let manifest_text bundle =
  Bundle_io.render_manifest
    (Bundle_manifest.of_bundle (Feam_depot.Store.create ()) bundle)

let test_manifest_rejects_data_line () =
  let text = manifest_text (make_bundle ()) in
  let damaged =
    match Str_split.find ~sub:"\nobject: " text with
    | Some i ->
      String.sub text 0 i ^ "\ndata: Zm9v"
      ^ String.sub text i (String.length text - i)
    | None -> Alcotest.fail "manifest lists no object"
  in
  expect_malformed ~sub:"data" (Bundle_io.parse_manifest damaged)

(* The two renderers share the container: a bundle and its manifest
   differ only in the magic line and in data:/object: payload lines. *)
let test_shared_layout () =
  let bundle = make_bundle () in
  let lines s = String.split_on_char '\n' s in
  let b = lines (Bundle_io.render bundle) and m = lines (manifest_text bundle) in
  Alcotest.(check int) "same line count" (List.length b) (List.length m);
  List.iteri
    (fun i (bl, ml) ->
      let payload_pair =
        String.starts_with ~prefix:"data: " bl
        && String.starts_with ~prefix:"object: " ml
      in
      if i = 0 then begin
        Alcotest.(check string) "bundle magic" "FEAM-BUNDLE 1" bl;
        Alcotest.(check string) "manifest magic" "FEAM-MANIFEST 1" ml
      end
      else if not payload_pair then
        Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) bl ml)
    (List.combine b m)

let test_name_traverses () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check bool) name expected (Bundle_io.name_traverses name))
    [
      ("../etc/passwd", true); ("a/../b", true); ("a/b/..", true);
      ("..", true); ("libc.so.6", false); ("lib..so", false);
      ("a..b/c", false); ("", false);
    ]

let suite =
  ( "bundle-io",
    [
      Alcotest.test_case "base64 vectors" `Quick test_base64_vectors;
      Alcotest.test_case "base64 binary" `Quick test_base64_binary;
      Alcotest.test_case "base64 rejects" `Quick test_base64_rejects;
      QCheck_alcotest.to_alcotest prop_base64_roundtrip;
      QCheck_alcotest.to_alcotest prop_base64_length;
      Alcotest.test_case "bundle roundtrip" `Quick test_bundle_roundtrip;
      Alcotest.test_case "parsed bundle drives target phase" `Quick
        test_parsed_bundle_usable_for_target_phase;
      Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects_garbage;
      Alcotest.test_case "parse error line numbers" `Quick test_parse_bad_line;
      Alcotest.test_case "parse accepts clean artifact" `Quick
        test_parse_accepts_clean;
      Alcotest.test_case "parse rejects duplicate copy" `Quick
        test_parse_rejects_duplicate_copy;
      Alcotest.test_case "parse rejects traversal probe" `Quick
        test_parse_rejects_traversal_probe;
      Alcotest.test_case "bad copy payload is malformed" `Quick
        (test_damaged "copy" "data" (Some "data: !!!!"));
      Alcotest.test_case "bad binary payload is malformed" `Quick
        (test_damaged "binary" "data" (Some "data: !!!!"));
      Alcotest.test_case "bad probe payload is malformed" `Quick
        (test_damaged "probe" "data" (Some "data: !!!!"));
      Alcotest.test_case "missing copy size is malformed" `Quick
        (test_damaged "copy" "declared-size" None);
      Alcotest.test_case "missing copy desc field is malformed" `Quick
        (test_damaged "copy" "desc-soname" None);
      Alcotest.test_case "overlong discovery glibc is no version" `Quick
        test_overlong_glibc;
      Alcotest.test_case "manifest magic error names FEAM-MANIFEST" `Quick
        test_manifest_magic_named;
      Alcotest.test_case "manifest rejects data payload line" `Quick
        test_manifest_rejects_data_line;
      Alcotest.test_case "bundle and manifest share one layout" `Quick
        test_shared_layout;
      Alcotest.test_case "name_traverses" `Quick test_name_traverses;
    ] )
