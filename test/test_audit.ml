(* Tests for the fleet audit layer: fact extraction, the content key
   read from the parse memo, the five fleet-tier rules over synthetic
   fleets, baseline round-trips, and the audit report's determinism. *)

open Feam_analysis
module Spec = Feam_elf.Spec
module Types = Feam_elf.Types
module Chash = Feam_util.Chash
module Diagnose = Feam_core.Diagnose

let v = Feam_util.Version.of_string_exn

(* -- Fixture objects ----------------------------------------------------- *)

let dynsym ?(defined = true) ?version name =
  { Spec.sym_name = name; sym_defined = defined; sym_binding = Spec.Global;
    sym_version = version }

let lib_image ?soname ?(exports = []) ?(glibc = []) ?(needed = []) () =
  let verneeds =
    if glibc = [] then []
    else [ { Spec.vn_file = "libc.so.6"; vn_versions = glibc } ]
  in
  Feam_elf.Builder.build
    (Spec.make ~file_type:Types.ET_DYN ?soname ~needed ~verneeds
       ~dynsyms:(List.map dynsym exports)
       Types.X86_64)

let bin_image ?(glibc = []) ?(needed = [ "libc.so.6" ]) () =
  let verneeds =
    if glibc = [] then []
    else [ { Spec.vn_file = "libc.so.6"; vn_versions = glibc } ]
  in
  Feam_elf.Builder.build
    (Spec.make ~file_type:Types.ET_EXEC ~needed ~verneeds
       ~interp:"/lib64/ld-linux-x86-64.so.2" Types.X86_64)

(* -- Fact extraction ----------------------------------------------------- *)

let empty_fleet =
  { Fleet.sites = []; binaries = []; libraries = []; cells = []; store = [] }

let test_facts_extraction () =
  let bytes =
    lib_image ~soname:"libx.so.1" ~exports:[ "zeta"; "alpha"; "alpha" ]
      ~glibc:[ "GLIBC_2.3.4"; "GLIBC_2.5"; "GLIBC_2.2.5" ]
      ~needed:[ "libc.so.6" ] ()
  in
  let f = Factbase.facts_of_image (Feam_elf.Reader.image bytes) in
  Alcotest.(check (option string)) "soname" (Some "libx.so.1") f.Factbase.fb_soname;
  Alcotest.(check (list string)) "needed" [ "libc.so.6" ] f.Factbase.fb_needed;
  Alcotest.(check (list string)) "exports sorted, deduped"
    [ "alpha"; "zeta" ] f.Factbase.fb_exports;
  Alcotest.(check string) "glibc floor is the newest binding" "2.5"
    (match f.Factbase.fb_glibc_floor with
    | Some floor -> Feam_util.Version.to_string floor
    | None -> "none");
  Alcotest.(check int) "size is the byte count" (String.length bytes)
    f.Factbase.fb_size;
  Alcotest.(check bool) "key matches the content hash" true
    (Fixtures.same_key f.Factbase.fb_key (Chash.of_bytes bytes))

let test_facts_unparsable () =
  let f =
    Factbase.facts_of_image (Feam_elf.Reader.image "not an elf image")
  in
  Alcotest.(check bool) "no spec" true (f.Factbase.fb_spec = None);
  Alcotest.(check bool) "parse error recorded" true
    (f.Factbase.fb_parse_error <> None);
  Alcotest.(check (list string)) "no exports" [] f.Factbase.fb_exports

(* The content key is held in the image's handle beside its parse:
   keying an image no one has parsed must not count as a parse, and a
   later parse through the same handle still misses exactly once. *)
let test_content_key_not_a_parse () =
  let bytes = lib_image ~soname:"libkey.so.1" ~exports:[ "f" ] () in
  let count name =
    Option.value ~default:0 (Feam_obs.Metrics.counter_value name)
  in
  let counts () =
    ( count "elf.parse_memo.hit",
      count "elf.parse_memo.miss",
      count "elf.parse_memo.saved_bytes" )
  in
  let image = Feam_elf.Reader.image bytes in
  let c0 = counts () in
  ignore (Feam_elf.Reader.image_key image);
  ignore (Feam_elf.Reader.image_key image);
  Alcotest.(check (triple int int int)) "keys leave the parse counters" c0
    (counts ());
  let h0, m0, b0 = c0 in
  ignore (Feam_elf.Reader.parse_image image);
  Alcotest.(check (triple int int int)) "the first parse still misses"
    (h0, m0 + 1, b0) (counts ())

(* qcheck: for arbitrary payloads (ELF or not), the memoized key is the
   content hash on first sight, on a repeat through the same handle, on
   an equal copy that is not the same string, and as the fact base
   reports it. *)
let gen_payload =
  QCheck.Gen.(
    oneof
      [
        map Bytes.to_string (bytes_size (int_range 0 256));
        map
          (fun (soname, exports) -> lib_image ~soname ~exports ())
          (pair (oneofl [ "liba.so.1"; "libb.so.2" ])
             (list_size (int_range 0 4) (oneofl [ "f"; "g"; "h"; "k" ])));
      ])

let prop_content_key =
  QCheck.Test.make ~name:"content key is the chash" ~count:100
    (QCheck.make ~print:String.escaped gen_payload) (fun bytes ->
      let expected = Chash.of_bytes bytes in
      let image = Feam_elf.Reader.image bytes in
      let first = Feam_elf.Reader.image_key image in
      let repeat = Feam_elf.Reader.image_key image in
      let copy =
        Feam_elf.Reader.(
          image_key (image (Bytes.to_string (Bytes.of_string bytes))))
      in
      let facts = (Factbase.facts_of_image image).Factbase.fb_key in
      List.for_all (Fixtures.same_key expected) [ first; repeat; copy; facts ])

(* -- Synthetic fleets ---------------------------------------------------- *)

let site ?(stacks = [ "openmpi" ]) ?(glibc = "2.12") name =
  { Fleet.site_name = name; site_machine = Types.X86_64; site_glibc = v glibc;
    site_stacks = List.sort_uniq compare stacks }

let library name site bytes =
  { Fleet.lib_name = name; lib_site = site;
    lib_facts = Factbase.facts_of_image (Feam_elf.Reader.image bytes) }

let binary ?(impl = Some "openmpi") ?(glibc = []) id home =
  { Fleet.bin_id = id; bin_home = home; bin_impl = impl;
    bin_facts =
      Factbase.facts_of_image (Feam_elf.Reader.image (bin_image ~glibc ())) }

let cell ?(basic = true) ?(extended = true) bin home target =
  { Fleet.cell_binary = bin; cell_home = home; cell_target = target;
    cell_basic = basic; cell_extended = extended }

let run_rule id fleet =
  match Registry.find id with
  | Some rule -> Engine.run_fleet ~rules:[ rule ] fleet
  | None -> Alcotest.failf "rule %s not registered" id

let subjects findings =
  List.map (fun (f : Diagnose.finding) -> f.Diagnose.subject) findings

let test_abi_skew () =
  let diverging = "libmpi.so.0" in
  let rebuilt = "libm.so.6" in
  let fleet =
    {
      empty_fleet with
      Fleet.sites = [ site "a"; site "b" ];
      libraries =
        [
          library diverging "a" (lib_image ~soname:diverging ~exports:[ "MPI_Init" ] ());
          library diverging "b" (lib_image ~soname:diverging ~exports:[ "MPI_Init"; "MPI_Init_thread" ] ());
          library rebuilt "a" (lib_image ~soname:rebuilt ~exports:[ "sin" ] ~glibc:[ "GLIBC_2.2.5" ] ());
          library rebuilt "b" (lib_image ~soname:rebuilt ~exports:[ "sin" ] ~glibc:[ "GLIBC_2.3.4" ] ());
          (* same bytes at both sites: no skew at all *)
          library "libz.so.1" "a" (lib_image ~soname:"libz.so.1" ~exports:[ "inflate" ] ());
          library "libz.so.1" "b" (lib_image ~soname:"libz.so.1" ~exports:[ "inflate" ] ());
        ];
    }
  in
  let findings = run_rule "abi-skew" fleet in
  Alcotest.(check (list string)) "diverging exports warn, rebuilds inform"
    [ diverging; rebuilt ] (subjects findings);
  (match findings with
  | [ f1; f2 ] ->
    Alcotest.(check string) "export divergence is a warning" "warn"
      (Diagnose.level_to_string f1.Diagnose.level);
    Alcotest.(check string) "content-only skew is info" "info"
      (Diagnose.level_to_string f2.Diagnose.level);
    Alcotest.(check bool) "message counts the variants" true
      (Feam_sysmodel.Str_split.contains ~sub:"2 distinct builds" f1.Diagnose.message)
  | _ -> Alcotest.fail "expected exactly two findings")

let test_fleet_orphan () =
  let fleet =
    {
      empty_fleet with
      Fleet.sites = [ site "a"; site "b"; site "c" ];
      binaries =
        [ binary "app.ok" "a"; binary "app.stuck" "a"; binary "app.pinned" "a" ];
      cells =
        [
          cell "app.ok" "a" "b" ~extended:true;
          cell "app.stuck" "a" "b" ~extended:false;
          cell "app.stuck" "a" "c" ~extended:false;
          (* app.pinned has no cells at all *)
        ];
    }
  in
  let findings = run_rule "fleet-orphan" fleet in
  Alcotest.(check (list string)) "both orphans, not the mobile binary"
    [ "app.pinned"; "app.stuck" ] (subjects findings);
  (match findings with
  | [ pinned; stuck ] ->
    Alcotest.(check bool) "pinned names the missing stack" true
      (Feam_sysmodel.Str_split.contains ~sub:"no site in the fleet"
         pinned.Diagnose.message);
    Alcotest.(check bool) "stuck counts its candidates" true
      (Feam_sysmodel.Str_split.contains ~sub:"0 of 2 candidate"
         stuck.Diagnose.message)
  | _ -> Alcotest.fail "expected exactly two findings")

let test_glibc_laggard () =
  let fleet =
    {
      empty_fleet with
      Fleet.sites = [ site ~glibc:"2.3.4" "old"; site ~glibc:"2.12" "new" ];
      binaries =
        [
          binary ~glibc:[ "GLIBC_2.5" ] "app.demanding" "new";
          binary ~glibc:[ "GLIBC_2.3" ] "app.modest" "new";
        ];
      cells =
        [
          cell "app.demanding" "new" "old" ~extended:false;
          cell "app.modest" "new" "old" ~extended:true;
        ];
    }
  in
  match run_rule "glibc-laggard" fleet with
  | [ f ] ->
    Alcotest.(check string) "the trailing site" "old" f.Diagnose.subject;
    Alcotest.(check bool) "reports the demanded floor" true
      (Feam_sysmodel.Str_split.contains ~sub:"2.5 floor demanded by 1 of 2"
         f.Diagnose.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_depot_unreferenced () =
  let obj referenced soname bytes =
    { Fleet.sto_key = Chash.of_bytes bytes; sto_soname = soname;
      sto_size = String.length bytes; sto_referenced = referenced }
  in
  let fleet =
    {
      empty_fleet with
      Fleet.store =
        [
          obj true (Some "liba.so.1") "aaaa";
          obj false (Some "libdead.so.2") "dddd";
          obj false None "ffff";
        ];
    }
  in
  let findings = run_rule "depot-unreferenced" fleet in
  Alcotest.(check int) "two dead objects" 2 (List.length findings);
  List.iter
    (fun (f : Diagnose.finding) ->
      Alcotest.(check string) "informational" "info"
        (Diagnose.level_to_string f.Diagnose.level))
    findings;
  Alcotest.(check (list string)) "subjects are short keys"
    [ Chash.short (Chash.of_bytes "dddd"); Chash.short (Chash.of_bytes "ffff") ]
    (List.sort compare (subjects findings))

let test_stack_partition () =
  let fleet =
    {
      empty_fleet with
      Fleet.sites =
        [
          site ~stacks:[ "openmpi" ] "a";
          site ~stacks:[ "openmpi" ] "b";
          site ~stacks:[ "mpich2" ] "c";
        ];
      binaries = [ binary ~impl:(Some "mpich2") "app.c1" "c" ];
    }
  in
  let findings = run_rule "stack-partition" fleet in
  Alcotest.(check (list string)) "stranded impl and the split fleet"
    [ "fleet"; "mpich2" ]
    (List.sort compare (subjects findings));
  let islands =
    List.find
      (fun (f : Diagnose.finding) -> f.Diagnose.subject = "fleet")
      findings
  in
  Alcotest.(check bool) "names both islands" true
    (Feam_sysmodel.Str_split.contains ~sub:"a,b | c" islands.Diagnose.message);
  (* a connected fleet with every impl at two sites reports nothing *)
  let connected =
    {
      fleet with
      Fleet.sites =
        [
          site "a";
          site ~stacks:[ "openmpi"; "mpich2" ] "b";
          site ~stacks:[ "openmpi"; "mpich2" ] "c";
        ];
    }
  in
  Alcotest.(check int) "connected fleet is clean" 0
    (List.length (run_rule "stack-partition" connected))

(* -- Registry tiers ------------------------------------------------------ *)

let test_registry_tiers () =
  Alcotest.(check int) "five fleet rules" 5 (List.length (Registry.fleet_ids ()));
  Alcotest.(check int) "cell + fleet = all"
    (Registry.count ())
    (List.length (Registry.cell_ids ()) + List.length (Registry.fleet_ids ()));
  List.iter
    (fun id ->
      match Registry.find id with
      | Some r -> Alcotest.(check string) (id ^ " tier") "fleet" (Rule.tier r)
      | None -> Alcotest.failf "fleet rule %s not registered" id)
    (Registry.fleet_ids ());
  (* every rule carries a non-empty long-form explanation *)
  List.iter
    (fun (r : Rule.t) ->
      Alcotest.(check bool) (r.Rule.id ^ " has explain text") true
        (String.length r.Rule.explain > 40))
    (Registry.all ())

(* -- Baselines ----------------------------------------------------------- *)

let finding rule_id subject =
  { Diagnose.rule_id; level = Diagnose.Warn; subject;
    message = "m"; fixit = None }

let test_baseline_roundtrip () =
  let findings =
    [ finding "abi-skew" "libx.so.1"; finding "fleet-orphan" "app.a";
      finding "abi-skew" "liby.so.2" ]
  in
  let b = Baseline.of_findings findings in
  (* the header line, then one line per entry *)
  let size b =
    List.length (String.split_on_char '\n' (String.trim (Baseline.render b))) - 1
  in
  Alcotest.(check int) "three entries" 3 (size b);
  let rendered = Baseline.render b in
  (match Baseline.parse rendered with
  | Ok parsed ->
    Alcotest.(check int) "round-trips" (size b) (size parsed);
    Alcotest.(check string) "render is canonical" rendered
      (Baseline.render parsed)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* comments and blank lines are tolerated *)
  (match Baseline.parse ("FEAM-BASELINE 1\n# comment\n\nabi-skew\tlibx.so.1\n") with
  | Ok b -> Alcotest.(check int) "comment file parses" 1 (size b)
  | Error e -> Alcotest.failf "comment file rejected: %s" e);
  (match Baseline.parse "abi-skew\tlibx.so.1\n" with
  | Ok _ -> Alcotest.fail "missing header accepted"
  | Error _ -> ());
  match Baseline.parse "FEAM-BASELINE 1\nno-tab-here\n" with
  | Ok _ -> Alcotest.fail "bad line accepted"
  | Error e ->
    Alcotest.(check bool) "error names the line" true
      (Feam_sysmodel.Str_split.contains ~sub:"no-tab-here" e)

let test_baseline_apply () =
  let known = finding "abi-skew" "libx.so.1" in
  let fresh = finding "fleet-orphan" "app.new" in
  let b = Baseline.of_findings [ known ] in
  let new_findings, suppressed = Baseline.apply b [ known; fresh ] in
  Alcotest.(check (list string)) "new finding passes" [ "app.new" ]
    (subjects new_findings);
  Alcotest.(check (list string)) "known finding suppressed" [ "libx.so.1" ]
    (subjects suppressed);
  (* gate only sees the new findings *)
  Alcotest.(check int) "suppressing everything gates clean" 0
    (Result.get_ok
       (Engine.gate ~fail_on:"warn"
          (fst (Baseline.apply (Baseline.of_findings [ known; fresh ]) [ known; fresh ]))))

(* -- Report determinism -------------------------------------------------- *)

let skew_fleet () =
  {
    empty_fleet with
    Fleet.sites = [ site "a"; site "b" ];
    binaries = [ binary "app.stuck" "a" ];
    cells = [ cell "app.stuck" "a" "b" ~extended:false ];
    libraries =
      [
        library "libx.so.1" "a" (lib_image ~soname:"libx.so.1" ~exports:[ "f" ] ());
        library "libx.so.1" "b" (lib_image ~soname:"libx.so.1" ~exports:[ "g" ] ());
      ];
  }

let test_report_determinism () =
  let render () =
    let fleet = skew_fleet () in
    Engine.render_fleet_text fleet (Engine.run_fleet fleet)
  in
  let first = render () in
  Alcotest.(check string) "two renders agree byte for byte" first (render ());
  Alcotest.(check bool) "report leads with the fleet line" true
    (Feam_sysmodel.Str_split.contains ~sub:"feam audit: 2 sites, 1 binaries"
       first);
  (* JSON view renders and parses back *)
  let fleet = skew_fleet () in
  let json =
    Feam_util.Json.render (Engine.fleet_to_json fleet (Engine.run_fleet fleet))
  in
  match Feam_util.Json.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "audit JSON does not parse back: %s" e

let suite =
  ( "audit",
    [
      Alcotest.test_case "fact extraction" `Quick test_facts_extraction;
      Alcotest.test_case "unparsable bytes still get facts" `Quick
        test_facts_unparsable;
      Alcotest.test_case "content key is not a parse" `Quick
        test_content_key_not_a_parse;
      QCheck_alcotest.to_alcotest prop_content_key;
      Alcotest.test_case "abi-skew" `Quick test_abi_skew;
      Alcotest.test_case "fleet-orphan" `Quick test_fleet_orphan;
      Alcotest.test_case "glibc-laggard" `Quick test_glibc_laggard;
      Alcotest.test_case "depot-unreferenced" `Quick test_depot_unreferenced;
      Alcotest.test_case "stack-partition" `Quick test_stack_partition;
      Alcotest.test_case "registry tiers" `Quick test_registry_tiers;
      Alcotest.test_case "baseline round-trip" `Quick test_baseline_roundtrip;
      Alcotest.test_case "baseline apply gates new findings only" `Quick
        test_baseline_apply;
      Alcotest.test_case "audit report determinism" `Quick
        test_report_determinism;
    ] )
