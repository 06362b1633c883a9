(* The symcheck pass: binding order, version matching, the
   definitive-miss soundness policy, interposition detection, the
   malformed-input behaviour of the .dynsym/.gnu.version parsers, and
   the acceptance scenario — a staged library that keeps its soname
   major yet drops an exported symbol, which the library-level rules
   accept and only the symbol walk refutes. *)

open Feam_util
open Feam_core
open Feam_analysis
module S = Feam_symcheck.Symcheck

let v = Version.of_string_exn

let import ?version ?(binding = Feam_elf.Spec.Global) name =
  {
    Feam_elf.Spec.sym_name = name;
    sym_defined = false;
    sym_binding = binding;
    sym_version = version;
  }

let export ?version name =
  {
    Feam_elf.Spec.sym_name = name;
    sym_defined = true;
    sym_binding = Feam_elf.Spec.Global;
    sym_version = version;
  }

let spec ?soname ?(needed = []) ?(verneeds = []) ?(verdefs = [])
    ?(dynsyms = []) () =
  Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ?soname ~needed
    ~verneeds:
      (List.map
         (fun (vn_file, vn_versions) -> { Feam_elf.Spec.vn_file; vn_versions })
         verneeds)
    ~verdefs ~dynsyms Feam_elf.Types.X86_64

let member label s = { S.mb_label = label; mb_spec = s }

(* -- binding semantics --------------------------------------------------- *)

(* No strong miss overturns the closure's acceptance. *)
let binds r = S.overturns r = []

let test_first_definition_wins () =
  let r =
    S.run
      [
        member "a.out"
          (spec ~needed:[ "liba.so.1"; "libb.so.1" ] ~dynsyms:[ import "f" ] ());
        member "liba.so.1" (spec ~soname:"liba.so.1" ~dynsyms:[ export "f" ] ());
        member "libb.so.1" (spec ~soname:"libb.so.1" ~dynsyms:[ export "f" ] ());
      ]
  in
  Alcotest.(check bool) "complete" true r.S.complete;
  (match r.S.bindings with
  | [ b ] ->
    Alcotest.(check string) "provider" "liba.so.1" b.S.bd_provider;
    Alcotest.(check int) "provider position" 1 b.S.bd_provider_pos
  | bs -> Alcotest.failf "expected one binding, got %d" (List.length bs));
  match r.S.interpositions with
  | [ ip ] ->
    Alcotest.(check string) "interposed symbol" "f" ip.S.ip_symbol;
    Alcotest.(check string) "winner" "liba.so.1" ip.S.ip_winner;
    Alcotest.(check (list string)) "shadowed" [ "libb.so.1" ] ip.S.ip_shadowed
  | ips -> Alcotest.failf "expected one interposition, got %d" (List.length ips)

let test_versioned_binding () =
  let root =
    member "a.out"
      (spec ~needed:[ "liba.so.1" ]
         ~verneeds:[ ("liba.so.1", [ "A_2.0" ]) ]
         ~dynsyms:[ import ~version:"A_2.0" "f" ]
         ())
  in
  (* a verdef carrying the version satisfies the reference *)
  let versioned =
    member "liba.so.1"
      (spec ~soname:"liba.so.1"
         ~verdefs:[ "liba.so.1"; "A_2.0" ]
         ~dynsyms:[ export ~version:"A_2.0" "f" ]
         ())
  in
  let r = S.run [ root; versioned ] in
  Alcotest.(check bool) "versioned bind ok" true (binds r);
  Alcotest.(check int) "bound" 1 (List.length r.S.bindings);
  (* a provider that predates symbol versioning (no verdefs) is
     accepted too, as ld.so does with a warning *)
  let unversioned =
    member "liba.so.1"
      (spec ~soname:"liba.so.1" ~dynsyms:[ export "f" ] ())
  in
  let r = S.run [ root; unversioned ] in
  Alcotest.(check bool) "pre-versioning provider ok" true (binds r)

let test_versioned_miss_definitive () =
  (* the attributed provider is present but defines only A_1.0: a
     definitive miss — the refutation the soname heuristic cannot see *)
  let r =
    S.run
      [
        member "a.out"
          (spec ~needed:[ "liba.so.1" ]
             ~verneeds:[ ("liba.so.1", [ "A_2.0" ]) ]
             ~dynsyms:[ import ~version:"A_2.0" "f" ]
             ());
        member "liba.so.1"
          (spec ~soname:"liba.so.1"
             ~verdefs:[ "liba.so.1"; "A_1.0" ]
             ~dynsyms:[ export ~version:"A_1.0" "f" ]
             ());
      ]
  in
  Alcotest.(check bool) "not ok" false (binds r);
  match S.overturns r with
  | [ m ] ->
    Alcotest.(check (option string)) "consulted" (Some "liba.so.1")
      m.S.miss_expected;
    Alcotest.(check bool) "definitive" true m.S.miss_definitive
  | ms -> Alcotest.failf "expected one overturn, got %d" (List.length ms)

let test_versioned_miss_absent_provider_skipped () =
  (* the verneed attributes the version to an object outside the
     scope: a library-level rule's finding, not a symbol-level one *)
  let r =
    S.run
      [
        member "a.out"
          (spec ~needed:[ "libgone.so.1" ]
             ~verneeds:[ ("libgone.so.1", [ "G_1.0" ]) ]
             ~dynsyms:[ import ~version:"G_1.0" "f" ]
             ());
      ]
  in
  Alcotest.(check bool) "ok" true (binds r);
  Alcotest.(check int) "no strong misses" 0 (List.length r.S.unresolved_strong)

let test_unversioned_miss_needs_complete_scope () =
  let root needed =
    member "a.out" (spec ~needed ~dynsyms:[ import "g" ] ())
  in
  let liba = member "liba.so.1" (spec ~soname:"liba.so.1" ()) in
  (* an absent DT_NEEDED could explain the miss: advisory only *)
  let r = S.run [ root [ "liba.so.1"; "libgone.so.1" ]; liba ] in
  Alcotest.(check bool) "incomplete scope" false r.S.complete;
  Alcotest.(check bool) "ok despite miss" true (binds r);
  (match r.S.unresolved_strong with
  | [ m ] -> Alcotest.(check bool) "advisory" false m.S.miss_definitive
  | ms -> Alcotest.failf "expected one miss, got %d" (List.length ms));
  (* a complete scope turns the same miss definitive *)
  let r = S.run [ root [ "liba.so.1" ]; liba ] in
  Alcotest.(check bool) "complete scope" true r.S.complete;
  Alcotest.(check bool) "refuted" false (binds r)

let test_weak_miss_is_not_an_overturn () =
  let r =
    S.run
      [
        member "a.out"
          (spec
             ~dynsyms:[ import ~binding:Feam_elf.Spec.Weak "maybe_hook" ]
             ());
      ]
  in
  Alcotest.(check bool) "ok" true (binds r);
  Alcotest.(check int) "weak recorded" 1 (List.length r.S.unresolved_weak)

let test_ignore_needed_keeps_scope_complete () =
  let scope =
    [ member "a.out" (spec ~needed:[ "libc.so.6" ] ()) ]
  in
  let r = S.run scope in
  Alcotest.(check bool) "libc counts against" false r.S.complete;
  let r = S.run ~ignore_needed:(fun n -> n = "libc.so.6") scope in
  Alcotest.(check bool) "libc exempted" true r.S.complete

(* -- malformed .dynsym/.gnu.version images ------------------------------- *)

(* Little-endian field surgery on built images. *)
let u16_at s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let u64_at s off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  lor (b 4 lsl 32) lor (b 5 lsl 40) lor (b 6 lsl 48) lor (b 7 lsl 56)

let patch image off values =
  let b = Bytes.of_string image in
  List.iteri (fun i v -> Bytes.set b (off + i) (Char.chr (v land 0xff))) values;
  Bytes.to_string b

let patch_u16 image off v = patch image off [ v; v lsr 8 ]
let patch_u64 image off v = patch image off [ v; v lsr 8; v lsr 16; v lsr 24; v lsr 32; v lsr 40; v lsr 48; v lsr 56 ]

(* File offset of section [name]'s header (C64 layout). *)
let section_header_off image name =
  let shoff = u64_at image 40 in
  let shentsize = u16_at image 58 in
  let reader = Fixtures.parse_elf image in
  let idx =
    match
      List.mapi (fun i s -> (i, s)) (Feam_elf.Reader.sections reader)
      |> List.find_opt (fun (_, s) -> s.Feam_elf.Reader.name = name)
    with
    | Some (i, _) -> i
    | None -> Alcotest.failf "no section %s" name
  in
  shoff + (idx * shentsize)

let symbol_image () =
  Feam_elf.Builder.build
    (spec ~soname:"libsym.so.1" ~needed:[ "libc.so.6" ]
       ~verneeds:[ ("libc.so.6", [ "GLIBC_2.2.5" ]) ]
       ~verdefs:[ "libsym.so.1"; "SYM_1.0" ]
       ~dynsyms:
         [
           export ~version:"SYM_1.0" "sym_init";
           import ~version:"GLIBC_2.2.5" "memcpy";
         ]
       ())

let parsed_dynsyms image =
  match Feam_elf.Reader.spec_of_bytes image with
  | Ok s -> s.Feam_elf.Spec.dynsyms
  | Error e -> Alcotest.failf "parse: %s" (Feam_elf.Reader.error_to_string e)

let test_out_of_range_versym_degrades () =
  let image = symbol_image () in
  (match parsed_dynsyms image with
  | [ d; _ ] ->
    Alcotest.(check (option string)) "pristine version" (Some "SYM_1.0")
      d.Feam_elf.Spec.sym_version
  | ds -> Alcotest.failf "expected 2 dynsyms, got %d" (List.length ds));
  (* point symbol 1's version entry at an index no verdef/verneed
     defines: the parse must survive and drop to unversioned *)
  let reader = Fixtures.parse_elf image in
  let versym =
    Option.get (List.find_opt (fun s -> s.Feam_elf.Reader.name = ".gnu.version") (Feam_elf.Reader.sections reader))
  in
  let mutated =
    patch_u16 image (versym.Feam_elf.Reader.sh_offset + 2) 0x7ffe
  in
  match parsed_dynsyms mutated with
  | [ d; _ ] ->
    Alcotest.(check (option string)) "degraded to unversioned" None
      d.Feam_elf.Spec.sym_version
  | ds -> Alcotest.failf "expected 2 dynsyms, got %d" (List.length ds)

let test_dangling_sh_link_falls_back () =
  let image = symbol_image () in
  (* an out-of-range .dynsym sh_link must not crash the string lookup:
     the reader falls back to .dynstr and names survive *)
  let mutated = patch_u16 image (section_header_off image ".dynsym" + 40) 999 in
  match parsed_dynsyms mutated with
  | [ d; _ ] ->
    Alcotest.(check string) "name survives" "sym_init" d.Feam_elf.Spec.sym_name
  | ds -> Alcotest.failf "expected 2 dynsyms, got %d" (List.length ds)

let test_truncated_dynsym_is_typed_error () =
  let image = symbol_image () in
  (* a .dynsym size pointing past the image must fail as Malformed,
     not as an escaping exception *)
  let mutated =
    patch_u64 image (section_header_off image ".dynsym" + 32)
      (String.length image * 2)
  in
  match Feam_elf.Reader.parse mutated with
  | Error (Feam_elf.Reader.Malformed _) -> ()
  | Error e ->
    Alcotest.failf "expected Malformed, got %s"
      (Feam_elf.Reader.error_to_string e)
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_truncated_versym_degrades () =
  let image = symbol_image () in
  (* a .gnu.version table shorter than .dynsym leaves the tail
     symbols unversioned instead of failing *)
  let mutated =
    patch_u64 image (section_header_off image ".gnu.version" + 32) 2
  in
  match parsed_dynsyms mutated with
  | [ _; d ] ->
    Alcotest.(check (option string)) "tail symbol unversioned" None
      d.Feam_elf.Spec.sym_version
  | ds -> Alcotest.failf "expected 2 dynsyms, got %d" (List.length ds)

(* -- the acceptance scenario, end to end through the rules --------------- *)

let description ?soname ?(needed = []) ?(verneeds = []) path =
  {
    Description.path;
    file_format = "elf64-x86-64";
    machine = Feam_elf.Types.X86_64;
    elf_class = Feam_elf.Types.C64;
    soname;
    needed;
    rpath = None;
    runpath = None;
    verneeds;
    required_glibc = Description.required_glibc_of_verneeds verneeds;
    mpi = None;
    provenance = { Objdump_parse.compiler_banner = None; build_os = None };
  }

let discovery =
  {
    Discovery.env_type = `Guaranteed;
    machine = Some Feam_elf.Types.X86_64;
    elf_class = Some Feam_elf.Types.C64;
    os = Some "CentOS 5.6";
    kernel = Some "2.6.18";
    glibc = Some (v "2.5");
    stacks = [];
    current_stack = None;
  }

(* A staged libfoo that keeps soname major 1 — every library-level
   determinant is satisfied — but no longer exports the feature symbol
   the binary imports. *)
let soname_keeping_symbol_dropping_bundle () =
  let root_needed = [ "libfoo.so.1"; "libc.so.6" ] in
  let root_verneeds = [ ("libc.so.6", [ "GLIBC_2.2.5" ]) ] in
  let root_bytes =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_EXEC ~needed:root_needed
         ~verneeds:
           (List.map
              (fun (vn_file, vn_versions) ->
                { Feam_elf.Spec.vn_file; vn_versions })
              root_verneeds)
         ~dynsyms:[ import "foo_init"; import "foo_feature_r2" ]
         ~interp:"/lib64/ld-linux-x86-64.so.2" Feam_elf.Types.X86_64)
  in
  let foo_bytes =
    Feam_elf.Builder.build
      (spec ~soname:"libfoo.so.1" ~needed:[ "libc.so.6" ]
         ~dynsyms:[ export "foo_init" ] ())
  in
  {
    Bundle.created_at = "home";
    binary_description =
      description ~needed:root_needed ~verneeds:root_verneeds
        "/home/user/bin/app";
    binary_image = Some (Feam_elf.Reader.image root_bytes);
    binary_declared_size = String.length root_bytes;
    copies =
      [
        {
          Bdc.copy_request = "libfoo.so.1";
          copy_origin_path = "/usr/lib64/libfoo.so.1";
          copy_image = Feam_elf.Reader.image foo_bytes;
          copy_declared_size = String.length foo_bytes;
          copy_description =
            description
              ~soname:(Soname.make ~version:[ 1 ] "libfoo")
              ~needed:[ "libc.so.6" ] "/usr/lib64/libfoo.so.1";
        };
      ];
    unlocatable = [];
    probes = [];
    source_discovery = discovery;
  }

let acceptance_context () =
  Context.of_bundle
    ~target:
      (Context.make_target ~name:"target" ~machine:Feam_elf.Types.X86_64
         ~glibc:(v "2.5") ())
    (soname_keeping_symbol_dropping_bundle ())

let symbol_rule_ids =
  [ "soname-major-unsound"; "symbol-interposed"; "symbol-unresolved" ]

let test_library_level_rules_accept () =
  (* without the symbol rules, the closure looks ready: that is the
     unsound acceptance under test *)
  let rules =
    List.filter
      (fun r -> not (List.mem r.Rule.id symbol_rule_ids))
      (Registry.all ())
  in
  let findings = Engine.run ~rules (acceptance_context ()) in
  Alcotest.(check int) "library level is clean" 0 (List.length findings)

let expected_acceptance_text =
  {golden|feam lint: /home/user/bin/app (bundled at home, 1 copies, 0 probes) -> target
error symbol-unresolved     foo_feature_r2: imported by /home/user/bin/app but exported by no object in the staged closure
      fix: re-stage a copy that exports the symbol from a site where the binary runs (feam symcheck prints the full bind log)
warn  soname-major-unsound  /home/user/bin/app: every DT_NEEDED is satisfied at the soname level, yet foo_feature_r2 cannot bind: the soname-major acceptance is unsound for this closure
      fix: trust the symbol-level verdict over the soname match: re-stage a closure built where the binary links
1 error, 1 warning, 0 info
|golden}

let test_symbol_rules_overturn () =
  let ctx = acceptance_context () in
  let findings = Engine.run ctx in
  Alcotest.(check string) "overturn report" expected_acceptance_text
    (Engine.render_text ctx findings);
  Alcotest.(check int) "exit code" 2 (Result.get_ok (Engine.gate ~fail_on:"warn" findings))

let suite =
  ( "symcheck",
    [
      Alcotest.test_case "first definition wins, rest interposed" `Quick
        test_first_definition_wins;
      Alcotest.test_case "versioned references bind verdefs" `Quick
        test_versioned_binding;
      Alcotest.test_case "versioned miss at a present provider is definitive"
        `Quick test_versioned_miss_definitive;
      Alcotest.test_case "versioned miss at an absent provider is skipped"
        `Quick test_versioned_miss_absent_provider_skipped;
      Alcotest.test_case "unversioned misses need a complete scope" `Quick
        test_unversioned_miss_needs_complete_scope;
      Alcotest.test_case "weak misses never overturn" `Quick
        test_weak_miss_is_not_an_overturn;
      Alcotest.test_case "ignore_needed exempts the C library" `Quick
        test_ignore_needed_keeps_scope_complete;
      Alcotest.test_case "out-of-range versym index degrades" `Quick
        test_out_of_range_versym_degrades;
      Alcotest.test_case "dangling dynsym sh_link falls back" `Quick
        test_dangling_sh_link_falls_back;
      Alcotest.test_case "oversized dynsym is a typed error" `Quick
        test_truncated_dynsym_is_typed_error;
      Alcotest.test_case "truncated versym degrades" `Quick
        test_truncated_versym_degrades;
      Alcotest.test_case "library-level rules accept the dropped symbol"
        `Quick test_library_level_rules_accept;
      Alcotest.test_case "symbol rules overturn the acceptance" `Quick
        test_symbol_rules_overturn;
    ] )
