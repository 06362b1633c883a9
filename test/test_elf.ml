(* Tests for the ELF substrate: builder/reader round trips across
   classes, endiannesses and feature combinations, malformed-input
   handling, and structural invariants of the emitted images. *)

open Feam_elf

let sample_spec ?(machine = Types.X86_64) ?(file_type = Types.ET_EXEC) () =
  Spec.make ~file_type
    ~needed:[ "libmpi.so.0"; "libm.so.6"; "libc.so.6" ]
    ~rpath:"/opt/openmpi-1.4/lib"
    ~verneeds:
      [
        { Spec.vn_file = "libc.so.6"; vn_versions = [ "GLIBC_2.2.5"; "GLIBC_2.5" ] };
        { Spec.vn_file = "libm.so.6"; vn_versions = [ "GLIBC_2.2.5" ] };
      ]
    ~comments:[ "GCC: (GNU) 4.1.2"; "GNU ld version 2.17" ]
    ~abi_note:(2, 6, 18) machine

let roundtrip spec =
  let bytes = Builder.build spec in
  match Reader.parse bytes with
  | Ok t -> Reader.spec t
  | Error e -> Alcotest.failf "parse failed: %s" (Reader.error_to_string e)

let check_roundtrip name spec =
  let spec' = roundtrip spec in
  Alcotest.(check bool) name true (spec = spec')

let test_roundtrip_exec () = check_roundtrip "exec x86-64" (sample_spec ())

let test_roundtrip_machines () =
  List.iter
    (fun machine ->
      check_roundtrip (Types.machine_name machine) (sample_spec ~machine ()))
    [ Types.I386; Types.X86_64; Types.PPC; Types.PPC64; Types.SPARC;
      Types.SPARCV9; Types.IA64 ]

let test_roundtrip_shared_library () =
  check_roundtrip "shared library"
    (Spec.make ~file_type:Types.ET_DYN ~soname:"libfoo.so.2"
       ~needed:[ "libc.so.6" ]
       ~verdefs:[ "libfoo.so.2"; "FOO_2.0"; "FOO_2.1" ]
       Types.X86_64)

let test_roundtrip_minimal () =
  check_roundtrip "no optional sections" (Spec.make Types.X86_64)

let test_roundtrip_runpath () =
  check_roundtrip "runpath"
    (Spec.make ~runpath:"/a:/b" ~needed:[ "libc.so.6" ] Types.X86_64)

let test_magic () =
  let bytes = Builder.build (sample_spec ()) in
  Alcotest.(check string) "magic" "\x7fELF" (String.sub bytes 0 4)

let test_not_elf () =
  (match Reader.parse "not an elf at all" with
  | Error Reader.Not_elf -> ()
  | _ -> Alcotest.fail "expected Not_elf");
  match Reader.parse "" with
  | Error Reader.Not_elf -> ()
  | _ -> Alcotest.fail "expected Not_elf on empty"

let test_truncated () =
  let bytes = Builder.build (sample_spec ()) in
  let cut = String.sub bytes 0 (String.length bytes / 2) in
  match Reader.parse cut with
  | Error (Reader.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "truncated image parsed"
  | Error e -> Alcotest.failf "unexpected: %s" (Reader.error_to_string e)

let test_corrupt_class () =
  let bytes = Bytes.of_string (Builder.build (sample_spec ())) in
  Bytes.set bytes 4 '\x07';
  match Reader.parse (Bytes.to_string bytes) with
  | Error (Reader.Unsupported _) -> ()
  | _ -> Alcotest.fail "expected Unsupported class"

let test_sections_present () =
  let bytes = Builder.build (sample_spec ()) in
  let t = Fixtures.parse_elf bytes in
  let names = List.map (fun s -> s.Reader.name) (Reader.sections t) in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ ".dynstr"; ".dynamic"; ".comment"; ".shstrtab"; ".gnu.version_r";
      ".note.ABI-tag" ]

let test_spec_helpers () =
  (* what the loader reads back: the versions required per provider and
     the absence of a soname *)
  let spec = roundtrip (sample_spec ()) in
  let versions_from file =
    List.concat_map
      (fun vn -> if vn.Spec.vn_file = file then vn.Spec.vn_versions else [])
      spec.Spec.verneeds
  in
  Alcotest.(check (list string)) "versions from libc"
    [ "GLIBC_2.2.5"; "GLIBC_2.5" ]
    (versions_from "libc.so.6");
  Alcotest.(check (list string)) "absent provider" [] (versions_from "libxyz.so");
  Alcotest.(check bool) "not a library" true (spec.Spec.soname = None)

let test_elf_hash () =
  (* Known values of the System V ELF hash. *)
  Alcotest.(check int) "empty" 0 (Types.elf_hash "");
  Alcotest.(check int) "printf" 0x077905a6 (Types.elf_hash "printf");
  Alcotest.(check bool) "GLIBC_2.2.5 nonzero" true (Types.elf_hash "GLIBC_2.2.5" <> 0)

let test_machine_codes () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (Types.machine_name m) true
        (Types.machine_of_code (Types.machine_code m) = Some m))
    [ Types.I386; Types.X86_64; Types.PPC; Types.PPC64; Types.SPARC;
      Types.SPARCV9; Types.IA64 ]

let test_machine_uname_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (Types.machine_uname m) true
        (Types.machine_of_uname (Types.machine_uname m) = Some m))
    [ Types.I386; Types.X86_64; Types.PPC; Types.PPC64; Types.SPARC;
      Types.SPARCV9; Types.IA64 ]

(* .dynstr interns: a string named by DT_NEEDED, a verneed file and a
   dynsym is stored once, and every string sits at the offset of its
   first insertion (DT_NEEDED, soname and paths, then dynsyms, verneeds
   and verdefs), so the table's bytes are exactly the distinct strings
   in that order. *)
let test_dynstr_interns_shared_strings () =
  let shared = "libshared.so.1" in
  let spec =
    Spec.make ~file_type:Types.ET_DYN ~soname:"libself.so.1"
      ~needed:[ shared; "libc.so.6" ]
      ~verneeds:
        [
          { Spec.vn_file = shared; vn_versions = [ "SHARED_1.0" ] };
          { Spec.vn_file = "libc.so.6"; vn_versions = [ "GLIBC_2.2.5" ] };
        ]
      ~verdefs:[ "libself.so.1"; "SELF_1.0" ]
      ~dynsyms:
        [
          {
            Spec.sym_name = shared;
            sym_defined = false;
            sym_binding = Spec.Global;
            sym_version = Some "SHARED_1.0";
          };
          {
            Spec.sym_name = "self_init";
            sym_defined = true;
            sym_binding = Spec.Weak;
            sym_version = Some "SELF_1.0";
          };
        ]
      Types.X86_64
  in
  let bytes = Builder.build spec in
  let t = Fixtures.parse_elf bytes in
  Alcotest.(check bool) "parses back equal" true (spec = Reader.spec t);
  let dynstr =
    match List.find_opt (fun s -> s.Reader.name = ".dynstr") (Reader.sections t) with
    | Some s -> String.sub bytes s.Reader.sh_offset s.Reader.sh_size
    | None -> Alcotest.fail "no .dynstr"
  in
  let expected =
    [ shared; "libc.so.6"; "libself.so.1"; "self_init"; "SHARED_1.0";
      "GLIBC_2.2.5"; "SELF_1.0" ]
  in
  Alcotest.(check string) "each string once, in first-insertion order"
    ("\000" ^ String.concat "" (List.map (fun s -> s ^ "\000") expected))
    dynstr

(* Building is linear in the strings a spec names.  Interning by a scan
   of the earlier strings would make 8x the strings cost about 64x the
   time; timing both sizes on the same host needs no absolute bound. *)
let test_build_scales_linearly () =
  let spec n =
    Spec.make
      ~dynsyms:
        (List.init n (fun i ->
             {
               Spec.sym_name = "sym_" ^ string_of_int i;
               sym_defined = true;
               sym_binding = Spec.Global;
               sym_version = None;
             }))
      Types.X86_64
  in
  let best_time spec =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      ignore (Sys.opaque_identity (Builder.build spec));
      best := Float.min !best (Sys.time () -. t0)
    done;
    !best
  in
  let small = best_time (spec 2_500) and large = best_time (spec 20_000) in
  let ratio = large /. Float.max small 1e-6 in
  Alcotest.(check bool)
    (Printf.sprintf "8x the strings cost %.1fx the time (bound 24x)" ratio)
    true (ratio < 24.)

(* -- qcheck: arbitrary specs round trip ----------------------------------- *)

let gen_lib_name =
  QCheck.Gen.(
    map2
      (fun base ver -> Printf.sprintf "lib%s.so.%d" base ver)
      (oneofl [ "a"; "bb"; "mpi"; "gfortran"; "pthread" ])
      (int_range 0 9))

let gen_version_name =
  QCheck.Gen.(
    map (fun (a, b) -> Printf.sprintf "GLIBC_2.%d.%d" a b) (pair (int_range 0 9) (int_range 0 9)))

let gen_spec =
  QCheck.Gen.(
    let machine = oneofl [ Types.I386; Types.X86_64; Types.PPC64; Types.SPARC ] in
    let file_type = oneofl [ Types.ET_EXEC; Types.ET_DYN ] in
    let needed = list_size (int_range 0 6) gen_lib_name in
    let verneed =
      map2
        (fun file versions -> { Spec.vn_file = file; vn_versions = versions })
        gen_lib_name
        (list_size (int_range 1 3) gen_version_name)
    in
    let verneeds = list_size (int_range 0 3) verneed in
    let comments = list_size (int_range 0 3) (oneofl [ "GCC: 4.1"; "ld 2.17"; "x" ]) in
    let soname = opt gen_lib_name in
    let abi = opt (map (fun k -> (2, 6, k)) (int_range 0 32)) in
    machine >>= fun machine ->
    file_type >>= fun file_type ->
    needed >>= fun needed ->
    verneeds >>= fun verneeds ->
    comments >>= fun comments ->
    soname >>= fun soname ->
    abi >>= fun abi_note ->
    return (Spec.make ~file_type ?soname ~needed ~verneeds ~comments ?abi_note machine))

(* Distinct dynstr entries required: duplicate version names across files
   are fine, but the reader folds duplicate NEEDED entries into one seen
   set only when names repeat — normalize before comparing. *)
let normalize_needed spec = spec

let arb_spec =
  QCheck.make ~print:(fun s -> Fmt.str "%a" Fixtures.pp_spec s) gen_spec

let prop_roundtrip =
  QCheck.Test.make ~name:"elf: build/parse roundtrip" ~count:200 arb_spec
    (fun spec ->
      let spec = normalize_needed spec in
      let bytes = Builder.build spec in
      match Reader.parse bytes with
      | Ok t -> spec = Reader.spec t
      | Error _ -> false)

let prop_image_magic =
  QCheck.Test.make ~name:"elf: every image starts with magic" ~count:100
    arb_spec (fun spec ->
      let bytes = Builder.build spec in
      String.length bytes > 16 && String.sub bytes 0 4 = "\x7fELF")

let prop_size_reasonable =
  QCheck.Test.make ~name:"elf: image size linear in content" ~count:100
    arb_spec (fun spec ->
      let bytes = Builder.build spec in
      String.length bytes < 65536)

(* -- The parse memo ---------------------------------------------------------- *)

(* A fresh string with the same bytes: equal content, never [==]. *)
let copy s = Bytes.to_string (Bytes.of_string s)

type variant = Whole | Truncate of int | Flip of int * int

(* Builder images plus truncated and byte-flipped variants, so the
   property covers the memoized [Error] results as well as [Ok]. *)
let arb_image =
  let open QCheck.Gen in
  let variant =
    frequency
      [
        (1, return Whole);
        (1, map (fun n -> Truncate n) (int_bound 100_000));
        (2, map2 (fun p b -> Flip (p, b)) (int_bound 100_000) (int_bound 255));
      ]
  in
  let image (spec, v) =
    let bytes = Builder.build spec in
    let n = String.length bytes in
    match v with
    | Whole -> bytes
    | Truncate k -> String.sub bytes 0 (k mod n)
    | Flip (p, b) ->
      let buf = Bytes.of_string bytes in
      Bytes.set buf (p mod n) (Char.chr b);
      Bytes.to_string buf
  in
  QCheck.make ~print:String.escaped (map image (pair gen_spec variant))

let same_parse a b =
  match (a, b) with
  | Ok x, Ok y ->
    Reader.spec x = Reader.spec y
    && Reader.sections x = Reader.sections y
  | Error e, Error e' -> e = e'
  | _ -> false

(* A handle is the parse memo: the same handle returns its first parse,
   [Ok] or [Error], and a second handle on the same string parses
   afresh to an equal result.  The digest is computed on demand, once
   per handle, and is the image's [Digest.string]. *)
let prop_parse_memo_transparent =
  QCheck.Test.make ~name:"elf: parse memo is transparent" ~count:300 arb_image
    (fun bytes ->
      let img = Reader.image bytes in
      let first = Reader.parse_image img in
      let again = Reader.parse_image img in
      let other = Reader.parse bytes in
      again == first
      && (match (first, other) with Ok x, Ok y -> x != y | _ -> true)
      && same_parse first again
      && same_parse first other
      && Reader.image_digest img = Digest.string bytes
      && Reader.image_digest img == Reader.image_digest img)

(* The memo lives in the handle: once the caller drops the handle, the
   image and its parse go with it, and a held handle keeps both. *)
let test_parse_memo_lifetime () =
  let bytes_freed = ref false and parsed_freed = ref false in
  let[@inline never] parse_and_drop () =
    let bytes = Builder.build (sample_spec ()) in
    let parsed = Result.get_ok (Reader.parse_image (Reader.image bytes)) in
    Gc.finalise_last (fun () -> bytes_freed := true) bytes;
    Gc.finalise_last (fun () -> parsed_freed := true) parsed
  in
  parse_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "image collected" true !bytes_freed;
  Alcotest.(check bool) "parse result collected" true !parsed_freed;
  let held = Reader.image (Builder.build (sample_spec ())) in
  let parsed = Reader.parse_image held in
  Gc.full_major ();
  Alcotest.(check bool) "a held handle keeps its parse" true
    (Reader.parse_image held == parsed)

(* Hits and misses depend only on the call sequence: the same handle
   hits, a second handle on the same string misses, and a collection
   changes neither. *)
let test_parse_memo_counters () =
  let count name =
    Option.value ~default:0 (Feam_obs.Metrics.counter_value name)
  in
  let counts () =
    (count "elf.parse_memo.hit", count "elf.parse_memo.miss")
  in
  let s = Builder.build (sample_spec ()) in
  let img = Reader.image s in
  let h0, m0 = counts () in
  ignore (Reader.parse_image img);
  ignore (Reader.parse_image img);
  Alcotest.(check (pair int int)) "same handle: 1 miss, 1 hit" (h0 + 1, m0 + 1)
    (counts ());
  ignore (Reader.parse_image (Reader.image s));
  Alcotest.(check (pair int int)) "second handle, same string: 1 more miss"
    (h0 + 1, m0 + 2) (counts ());
  let before = counts () in
  Gc.full_major ();
  Alcotest.(check (pair int int)) "unchanged by a collection" before (counts ());
  ignore (Reader.parse_image img);
  Alcotest.(check (pair int int)) "held handle still hits" (h0 + 2, m0 + 2)
    (counts ())

let suite =
  ( "elf",
    [
      Alcotest.test_case "roundtrip exec" `Quick test_roundtrip_exec;
      Alcotest.test_case "roundtrip all machines" `Quick test_roundtrip_machines;
      Alcotest.test_case "roundtrip shared library" `Quick test_roundtrip_shared_library;
      Alcotest.test_case "roundtrip minimal" `Quick test_roundtrip_minimal;
      Alcotest.test_case "roundtrip runpath" `Quick test_roundtrip_runpath;
      Alcotest.test_case "magic bytes" `Quick test_magic;
      Alcotest.test_case "reject non-ELF" `Quick test_not_elf;
      Alcotest.test_case "reject truncated" `Quick test_truncated;
      Alcotest.test_case "reject corrupt class" `Quick test_corrupt_class;
      Alcotest.test_case "sections present" `Quick test_sections_present;
      Alcotest.test_case "spec helpers" `Quick test_spec_helpers;
      Alcotest.test_case "elf hash" `Quick test_elf_hash;
      Alcotest.test_case "machine codes" `Quick test_machine_codes;
      Alcotest.test_case "machine uname" `Quick test_machine_uname_roundtrip;
      Alcotest.test_case "dynstr interns shared strings" `Quick
        test_dynstr_interns_shared_strings;
      Alcotest.test_case "build scales linearly" `Quick test_build_scales_linearly;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_image_magic;
      QCheck_alcotest.to_alcotest prop_size_reasonable;
      QCheck_alcotest.to_alcotest prop_parse_memo_transparent;
      Alcotest.test_case "parse memo drops dead images" `Quick
        test_parse_memo_lifetime;
      Alcotest.test_case "parse memo counters" `Quick test_parse_memo_counters;
    ] )
