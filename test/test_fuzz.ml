(* Fuzz-robustness: byte-level mutations of valid inputs must never
   crash the parsers — every outcome is [Ok] or a typed [Error], no
   escaping exception, no hang. *)

let base_image =
  Feam_elf.Builder.build
    (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_EXEC
       ~needed:[ "libmpi.so.0"; "libm.so.6"; "libc.so.6" ]
       ~rpath:"/opt/x/lib"
       ~verneeds:
         [
           {
             Feam_elf.Spec.vn_file = "libc.so.6";
             vn_versions = [ "GLIBC_2.2.5"; "GLIBC_2.5" ];
           };
         ]
       ~verdefs:[ "SOME_1.0" ]
       ~comments:[ "GCC: (GNU) 4.1.2" ]
       ~abi_note:(2, 6, 18)
       ~interp:"/lib64/ld-linux-x86-64.so.2" Feam_elf.Types.X86_64)

(* A symbol-rich image: a versioned export, versioned and unversioned
   imports, and a weak reference exercise the .dynsym/.gnu.version
   parsing paths under mutation. *)
let symbol_image =
  let sym name ~defined ~binding ~version =
    {
      Feam_elf.Spec.sym_name = name;
      sym_defined = defined;
      sym_binding = binding;
      sym_version = version;
    }
  in
  Feam_elf.Builder.build
    (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname:"libsym.so.1"
       ~needed:[ "libc.so.6" ]
       ~verneeds:
         [
           {
             Feam_elf.Spec.vn_file = "libc.so.6";
             vn_versions = [ "GLIBC_2.2.5"; "GLIBC_2.5" ];
           };
         ]
       ~verdefs:[ "libsym.so.1"; "SYM_1.0"; "SYM_2.0" ]
       ~dynsyms:
         [
           sym "sym_init" ~defined:true ~binding:Feam_elf.Spec.Global
             ~version:(Some "SYM_2.0");
           sym "memcpy" ~defined:false ~binding:Feam_elf.Spec.Global
             ~version:(Some "GLIBC_2.2.5");
           sym "plain_ref" ~defined:false ~binding:Feam_elf.Spec.Global
             ~version:None;
           sym "weak_hook" ~defined:false ~binding:Feam_elf.Spec.Weak
             ~version:None;
         ]
       Feam_elf.Types.X86_64)

(* Apply [n] random single-byte mutations, deterministically from a
   seed. *)
let mutate seed n (s : string) =
  let b = Bytes.of_string s in
  let g = Feam_util.Prng.create seed in
  for _ = 1 to n do
    let pos = Feam_util.Prng.int g (Bytes.length b) in
    Bytes.set b pos (Char.chr (Feam_util.Prng.int g 256))
  done;
  Bytes.to_string b

let gen_mutation = QCheck.Gen.(pair (int_range 0 100000) (int_range 1 24))

let prop_elf_reader_total =
  QCheck.Test.make ~name:"fuzz: ELF reader is total on mutated images"
    ~count:800
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      match Feam_elf.Reader.parse (mutate seed n base_image) with
      | Ok _ | Error _ -> true)

let prop_elf_reader_truncations =
  QCheck.Test.make ~name:"fuzz: ELF reader is total on truncations" ~count:200
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(int_range 0 (String.length base_image)))
    (fun len ->
      match Feam_elf.Reader.parse (String.sub base_image 0 len) with
      | Ok _ | Error _ -> true)

let prop_symbol_tables_total =
  QCheck.Test.make
    ~name:"fuzz: .dynsym/.gnu.version parsing is total on mutated images"
    ~count:800
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      match Feam_elf.Reader.parse (mutate seed n symbol_image) with
      | Ok _ | Error _ -> true)

let prop_symbol_tables_truncations =
  QCheck.Test.make
    ~name:"fuzz: .dynsym/.gnu.version parsing is total on truncations"
    ~count:200
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(int_range 0 (String.length symbol_image)))
    (fun len ->
      match Feam_elf.Reader.parse (String.sub symbol_image 0 len) with
      | Ok _ | Error _ -> true)

(* Golden outcome of the ELF reader over fixed corpora: 800 seeded
   mutations and every truncation of each image.  Each input renders
   its spec and section table, or its error message; the digest of all
   renderings pins both, so a change to the parse kernel that moves a
   single field or error text fails here.  The values are those of the
   reader that assembled every field byte by byte. *)
let render_outcome bytes = function
  | Error e -> "error " ^ Feam_elf.Reader.error_to_string e
  | Ok t ->
    let spec = Feam_elf.Reader.spec t in
    let section (s : Feam_elf.Reader.section) =
      Printf.sprintf "%s/%d/%d/%d/%d/%d/%d" s.name s.sh_type s.sh_offset
        s.sh_size s.sh_link s.sh_info s.sh_addr
    in
    String.concat "\n"
      [
        Fmt.str "%a" Fixtures.pp_spec spec;
        Option.value ~default:"-" spec.Feam_elf.Spec.interp;
        (match spec.Feam_elf.Spec.abi_note with
        | Some (a, b, c) -> Printf.sprintf "%d.%d.%d" a b c
        | None -> "-");
        String.concat " " (List.map section (Feam_elf.Reader.sections t));
        string_of_int (String.length bytes);
        Digest.to_hex (Digest.string bytes);
      ]

let corpus_digest image =
  let mutated =
    List.init 800 (fun seed -> mutate seed (1 + (seed mod 24)) image)
  in
  let truncated =
    List.init (String.length image + 1) (fun len -> String.sub image 0 len)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n--\n"
          (List.map
             (fun bytes -> render_outcome bytes (Feam_elf.Reader.parse bytes))
             (mutated @ truncated))))

let test_reader_golden () =
  Alcotest.(check (pair string string))
    "base and symbol corpora"
    ("4012b8c374340e3499d81ffe48d8c4f1", "d824a387f00fdfed3399c28c9bcf1eee")
    (corpus_digest base_image, corpus_digest symbol_image)

(* A valid bundle, and its bundle and manifest artifacts, to mutate. *)
let base_bundle =
  lazy
    (let site, installs = Fixtures.small_site ~name:"fuzzhome" () in
     let path, install =
       Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
     in
     let env = Fixtures.session_env site install in
     Fixtures.run_exn
       (Feam_core.Phases.source_phase Feam_core.Config.default site env
          ~binary_path:path))

let base_bundle_text =
  lazy (Feam_core.Bundle_io.render (Lazy.force base_bundle))

let base_manifest_text =
  lazy
    (Feam_core.Bundle_io.render_manifest
       (Feam_core.Bundle_manifest.of_bundle (Feam_depot.Store.create ())
          (Lazy.force base_bundle)))

let prop_bundle_parser_total =
  QCheck.Test.make ~name:"fuzz: bundle parser is total on mutated artifacts"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      let text = Lazy.force base_bundle_text in
      match Feam_core.Bundle_io.parse (mutate seed n text) with
      | Ok _ | Error _ -> true)

let prop_manifest_parser_total =
  QCheck.Test.make ~name:"fuzz: manifest parser is total on mutated artifacts"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      let text = Lazy.force base_manifest_text in
      match Feam_core.Bundle_io.parse_manifest (mutate seed n text) with
      | Ok _ | Error _ -> true)

(* How many "[name]" section headers the text carries. *)
let sections_named name text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l = "[" ^ name ^ "]")
  |> List.length

(* A damaged [copy] or [probe] section fails the load; it is never
   dropped from an artifact that still loads. *)
let prop_no_silent_drop =
  QCheck.Test.make
    ~name:"fuzz: a mutated artifact never loads with entries dropped"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      let whole text ~copies ~probes =
        copies = sections_named "copy" text
        && probes = sections_named "probe" text
      in
      let b = mutate seed n (Lazy.force base_bundle_text)
      and m = mutate seed n (Lazy.force base_manifest_text) in
      (match Feam_core.Bundle_io.parse b with
      | Ok x ->
        whole b
          ~copies:(List.length x.Feam_core.Bundle.copies)
          ~probes:(List.length x.Feam_core.Bundle.probes)
      | Error _ -> true)
      &&
      match Feam_core.Bundle_io.parse_manifest m with
      | Ok x ->
        whole m
          ~copies:(List.length x.Feam_core.Bundle_manifest.man_entries)
          ~probes:(List.length x.Feam_core.Bundle_manifest.man_probes)
      | Error _ -> true)

let prop_json_parser_total =
  QCheck.Test.make ~name:"fuzz: JSON parser is total on arbitrary strings"
    ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(map Bytes.to_string (bytes_size (int_range 0 64))))
    (fun s ->
      match Feam_util.Json.parse s with Ok _ | Error _ -> true)

let prop_objdump_parser_total =
  QCheck.Test.make
    ~name:"fuzz: objdump parser is total on scrambled tool output" ~count:300
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      let text =
        mutate seed n
          "x:     file format elf64-x86-64\n\nDynamic Section:\n  NEEDED  \
           libc.so.6\n\nVersion References:\n  required from libc.so.6:\n    \
           0x1 0x00 02 GLIBC_2.2.5\n"
      in
      match Feam_core.Objdump_parse.parse_objdump_p text with
      | Ok _ | Error _ -> true)

(* Includes the historical crash shape: an all-digit version component
   exceeding max_int used to raise an uncaught [Failure] inside
   [int_of_string]. *)
let gen_soname_like =
  QCheck.Gen.(
    oneof
      [
        map Bytes.to_string (bytes_size (int_range 0 32));
        map
          (fun (base, suffix) -> base ^ suffix)
          (pair
             (oneofl [ "libm"; "lib"; ""; "x" ])
             (oneofl
                [
                  ".so.1";
                  ".so.";
                  ".so..2";
                  ".so.1abc";
                  ".so.999999999999999999999999";
                  ".so.-1";
                  ".so.1.2.3";
                  "so.1";
                  ".so";
                ]));
      ])

let prop_soname_parser_total =
  QCheck.Test.make ~name:"fuzz: soname parser is total on arbitrary strings"
    ~count:800
    (QCheck.make ~print:String.escaped gen_soname_like)
    (fun s ->
      (match Feam_util.Soname.of_string_result s with
      | Ok _ | Error _ -> ());
      (* [of_string] agrees with [of_string_result] *)
      match (Feam_util.Soname.of_string s, Feam_util.Soname.of_string_result s) with
      | Some a, Ok b -> ( = ) a b
      | None, Error _ -> true
      | _ -> false)

(* Version-like strings: dotted digit runs, some far too long for an
   int, with a tag, and arbitrary bytes. *)
let gen_version_like =
  QCheck.Gen.(
    let component =
      oneof
        [
          map string_of_int nat;
          map (fun n -> String.make n '9') (int_range 1 40);
          string_size ~gen:numeral (int_range 0 30);
        ]
    in
    oneof
      [
        map Bytes.to_string (bytes_size (int_range 0 24));
        map2
          (fun parts tag -> String.concat "." parts ^ tag)
          (list_size (int_range 1 5) component)
          (oneofl [ ""; "rc1"; "a2"; "."; "-x" ]);
      ])

let prop_version_parser_total =
  QCheck.Test.make ~name:"fuzz: version parser never raises" ~count:800
    (QCheck.make ~print:String.escaped gen_version_like)
    (fun s ->
      ignore (Feam_util.Version.of_string s : Feam_util.Version.t option);
      ignore
        (Feam_toolchain.Glibc.version_of_symbol ("GLIBC_" ^ s)
          : Feam_util.Version.t option);
      true)

(* The four persisted JSONL formats, each rendered by its own writer
   (Test_jsonl.readers): byte mutations and every truncation must
   leave each reader returning [Ok] or [Error], never raising.  Seeded
   from a fixed state so a failure reproduces. *)
let prop_jsonl_readers_total =
  QCheck.Test.make
    ~name:"fuzz: journal/epoch/timeline/bench-history readers are total on \
           mutated documents"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      List.for_all
        (fun (_, parse, doc) ->
          match parse (mutate seed n (Lazy.force doc)) with
          | Ok () | Error _ -> true)
        Test_jsonl.readers)

let test_jsonl_readers_truncations () =
  List.iter
    (fun (_, parse, doc) ->
      let doc = Lazy.force doc in
      for len = 0 to String.length doc do
        match parse (String.sub doc 0 len) with Ok () | Error _ -> ()
      done)
    Test_jsonl.readers

let suite =
  ( "fuzz",
    [
      QCheck_alcotest.to_alcotest prop_elf_reader_total;
      QCheck_alcotest.to_alcotest prop_elf_reader_truncations;
      QCheck_alcotest.to_alcotest prop_symbol_tables_total;
      QCheck_alcotest.to_alcotest prop_symbol_tables_truncations;
      Alcotest.test_case "fuzz: ELF reader outcomes are golden" `Quick
        test_reader_golden;
      QCheck_alcotest.to_alcotest prop_bundle_parser_total;
      QCheck_alcotest.to_alcotest prop_manifest_parser_total;
      QCheck_alcotest.to_alcotest prop_no_silent_drop;
      QCheck_alcotest.to_alcotest prop_json_parser_total;
      QCheck_alcotest.to_alcotest prop_objdump_parser_total;
      QCheck_alcotest.to_alcotest prop_soname_parser_total;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 42 |])
        prop_version_parser_total;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 42 |])
        prop_jsonl_readers_total;
      Alcotest.test_case
        "fuzz: journal/epoch/timeline/bench-history readers are total on \
         every truncation"
        `Quick test_jsonl_readers_truncations;
    ] )
