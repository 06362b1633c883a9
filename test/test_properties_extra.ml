(* Additional cross-cutting properties: resolution idempotence, Env
   path-list laws, corpus-stats consistency. *)

open Feam_sysmodel
open Feam_core

(* -- resolution idempotence ----------------------------------------------- *)

let test_resolution_idempotent () =
  (* running the resolution twice over the same missing set stages the
     same copies at the same paths and succeeds both times *)
  let home, home_installs = Fixtures.small_site ~name:"idemhome" () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program home home_installs
  in
  let env = Fixtures.session_env home install in
  let bundle =
    Fixtures.run_exn
      (Phases.source_phase Config.default home env ~binary_path:path)
  in
  let target, _ = Fixtures.small_site ~name:"idemtarget" ~glibc:"2.12" () in
  let resolve () =
    Resolve_model.resolve Config.default target (Site.base_env target) ~bundle
      ~target_glibc:(Some (Site.glibc target))
      ~binary_machine:Feam_elf.Types.X86_64 ~binary_class:Feam_elf.Types.C64
      ~missing:[ "libgfortran.so.1" ]
  in
  let a = resolve () in
  let b = resolve () in
  Alcotest.(check bool) "same staged" true
    (a.Resolve_model.staged = b.Resolve_model.staged);
  Alcotest.(check bool) "same failures" true
    (List.map fst a.Resolve_model.failed = List.map fst b.Resolve_model.failed)

(* -- Env laws --------------------------------------------------------------- *)

let gen_dirs =
  QCheck.Gen.(list_size (int_range 0 6) (oneofl [ "/a"; "/b"; "/c"; "/d/e" ]))

let prop_env_prepend_order =
  QCheck.Test.make ~name:"env: prepended dirs come back in reverse order"
    ~count:200
    (QCheck.make ~print:(String.concat ":") gen_dirs)
    (fun dirs ->
      let env =
        List.fold_left
          (fun e d -> Env.prepend_path e "LD_LIBRARY_PATH" d)
          Env.empty dirs
      in
      Env.ld_library_path env = List.rev dirs)

(* -- corpus stats consistency ----------------------------------------------- *)

let test_corpus_stats_consistent () =
  let params = Feam_evalharness.Params.default in
  let sites = Feam_evalharness.Sites.build_all params in
  let benchmarks = Feam_suites.Npb.all in
  let binaries = Feam_evalharness.Testset.build params sites benchmarks in
  (* rendered rows: benchmark, one count per site, total; the last row
     ("all") sums the columns *)
  let rows =
    Feam_util.Table.render (Feam_evalharness.Corpus_stats.table sites binaries)
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match
             String.split_on_char '|' line |> List.map String.trim
             |> List.filter (fun c -> c <> "")
           with
           | name :: (_ :: _ as counts) when name <> "Benchmark" ->
             Some (name, List.map int_of_string counts)
           | _ -> None)
  in
  let sum = List.fold_left ( + ) 0 in
  let split counts =
    match List.rev counts with
    | total :: per_site -> (total, per_site)
    | [] -> Alcotest.fail "empty row"
  in
  (* row totals match per-site sums and the corpus size *)
  List.iter
    (fun (name, counts) ->
      let total, per_site = split counts in
      Alcotest.(check int) (name ^ " total") total (sum per_site))
    rows;
  Alcotest.(check int) "grand total" (List.length binaries)
    (sum
       (List.filter_map
          (fun (name, counts) -> if name = "all" then None else Some (fst (split counts)))
          rows))

(* -- soname and version laws -------------------------------------------------- *)

let gen_soname =
  QCheck.Gen.(
    map
      (fun (base, version) -> Feam_util.Soname.make ~version base)
      (pair
         (oneofl [ "libm"; "libmpi"; "libgfortran"; "libx264"; "ld-linux" ])
         (list_size (int_range 0 4) (int_range 0 999))))

let prop_soname_roundtrip =
  QCheck.Test.make ~name:"soname: to_string/of_string round-trip" ~count:300
    (QCheck.make
       ~print:(fun s -> Feam_util.Soname.to_string s)
       gen_soname)
    (fun s ->
      match Feam_util.Soname.of_string (Feam_util.Soname.to_string s) with
      | Some s' -> ( = ) s s'
      | None -> false)

let prop_soname_satisfies_reflexive =
  QCheck.Test.make ~name:"soname: satisfies is reflexive" ~count:200
    (QCheck.make ~print:Feam_util.Soname.to_string gen_soname)
    (fun s -> Feam_util.Soname.satisfies ~provided:s ~required:s)

let gen_version =
  QCheck.Gen.(
    map Feam_util.Version.of_ints (list_size (int_range 1 4) (int_range 0 99)))

let prop_version_roundtrip =
  QCheck.Test.make ~name:"version: to_string/of_string round-trip" ~count:300
    (QCheck.make ~print:Feam_util.Version.to_string gen_version)
    (fun v ->
      match Feam_util.Version.of_string (Feam_util.Version.to_string v) with
      | Some v' -> Feam_util.Version.equal v v'
      | None -> false)

let prop_version_compare_total_order =
  QCheck.Test.make ~name:"version: compare is antisymmetric and transitive"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b, c) ->
         Printf.sprintf "%s %s %s"
           (Feam_util.Version.to_string a)
           (Feam_util.Version.to_string b)
           (Feam_util.Version.to_string c))
       QCheck.Gen.(triple gen_version gen_version gen_version))
    (fun (a, b, c) ->
      let open Feam_util.Version in
      compare a b = -compare b a
      && ((not (a <= b && b <= c)) || a <= c)
      && (compare a b <> 0 || to_string a = to_string b))

(* -- search precedence over staged copies ------------------------------------ *)

let test_staged_copy_shadows_system_lib () =
  (* a staged copy prepended on LD_LIBRARY_PATH wins over a same-named
     system library, per ld.so precedence *)
  let site, _ = Fixtures.small_site ~name:"shadow" () in
  let vfs = Site.vfs site in
  let lib name =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname:name
         Feam_elf.Types.X86_64)
  in
  Vfs.add vfs "/lib64/libshadow.so.1" (Vfs.Elf (lib "libshadow.so.1"));
  Vfs.add vfs "/tmp/staged/libshadow.so.1" (Vfs.Elf (lib "libshadow.so.1"));
  let env = Env.prepend_path (Site.base_env site) "LD_LIBRARY_PATH" "/tmp/staged" in
  let spec =
    Feam_elf.Spec.make ~needed:[ "libshadow.so.1" ] Feam_elf.Types.X86_64
  in
  let r = Feam_dynlinker.Resolve.run site env spec in
  match r.Feam_dynlinker.Resolve.resolved with
  | [ lib ] ->
    Alcotest.(check string) "staged wins" "/tmp/staged/libshadow.so.1"
      lib.Feam_dynlinker.Resolve.lib_path
  | _ -> Alcotest.fail "unexpected resolution"

let suite =
  ( "properties-extra",
    [
      Alcotest.test_case "resolution idempotent" `Quick test_resolution_idempotent;
      QCheck_alcotest.to_alcotest prop_env_prepend_order;
      Alcotest.test_case "corpus stats consistent" `Slow test_corpus_stats_consistent;
      QCheck_alcotest.to_alcotest prop_soname_roundtrip;
      QCheck_alcotest.to_alcotest prop_soname_satisfies_reflexive;
      QCheck_alcotest.to_alcotest prop_version_roundtrip;
      QCheck_alcotest.to_alcotest prop_version_compare_total_order;
      Alcotest.test_case "staged copy shadows system lib" `Quick
        test_staged_copy_shadows_system_lib;
    ] )
