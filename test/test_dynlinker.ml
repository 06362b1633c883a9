(* Tests for the ground-truth dynamic linker and executor: search-path
   precedence, recursive resolution, symbol-version checking, ldd
   emulation and the execution failure taxonomy. *)

open Feam_util
open Feam_sysmodel
open Feam_dynlinker

let v = Version.of_string_exn

(* -- Search --------------------------------------------------------------- *)

let test_search_order () =
  let site, _ = Fixtures.small_site () in
  let env = Env.set (Site.base_env site) "LD_LIBRARY_PATH" "/ld/one:/ld/two" in
  let spec =
    Feam_elf.Spec.make ~rpath:"/my/rpath" ~needed:[ "libc.so.6" ]
      Feam_elf.Types.X86_64
  in
  let dirs = Search.search_dirs site env spec in
  (* rpath first, then LD_LIBRARY_PATH, then cache dirs, then defaults *)
  Alcotest.(check string) "rpath first" "/my/rpath" (List.nth dirs 0);
  Alcotest.(check string) "then ld path" "/ld/one" (List.nth dirs 1);
  Alcotest.(check bool) "defaults last" true (List.mem "/lib64" dirs)

let test_runpath_disables_rpath () =
  let site, _ = Fixtures.small_site () in
  let spec =
    Feam_elf.Spec.make ~rpath:"/my/rpath" ~runpath:"/my/runpath"
      ~needed:[ "libc.so.6" ] Feam_elf.Types.X86_64
  in
  let dirs = Search.search_dirs site (Site.base_env site) spec in
  Alcotest.(check bool) "rpath suppressed" false (List.mem "/my/rpath" dirs);
  Alcotest.(check bool) "runpath used" true (List.mem "/my/runpath" dirs)

let test_locate_precedence () =
  let site, _ = Fixtures.small_site () in
  let vfs = Site.vfs site in
  Vfs.add vfs "/first/libx.so.1" (Vfs.Elf (Feam_elf.Builder.build (Feam_elf.Spec.make Feam_elf.Types.X86_64)));
  Vfs.add vfs "/second/libx.so.1" (Vfs.Elf (Feam_elf.Builder.build (Feam_elf.Spec.make Feam_elf.Types.X86_64)));
  Alcotest.(check (option string)) "first dir wins" (Some "/first/libx.so.1")
    (Search.locate_in_dirs site [ "/first"; "/second" ] "libx.so.1");
  Alcotest.(check (option string)) "none" None
    (Search.locate_in_dirs site [ "/first" ] "liby.so.1")

(* -- Resolve ---------------------------------------------------------------- *)

let compiled ?(glibc = "2.5") ?program () =
  let site, installs = Fixtures.small_site ~glibc () in
  let path, install = Fixtures.compiled_binary ?program site installs in
  (site, installs, path, install)

let parse_at site path =
  match Vfs.find (Site.vfs site) path with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
    Feam_elf.Reader.spec (Fixtures.parse_elf bytes)
  | _ -> Alcotest.fail "binary missing"

let test_resolve_closure () =
  let site, _, path, install = compiled () in
  let env = Fixtures.session_env site install in
  let r = Resolve.run site env (parse_at site path) in
  Alcotest.(check bool) "ok" true (Resolve.ok r);
  let names = List.map (fun l -> l.Resolve.lib_name) r.Resolve.resolved in
  (* transitive dependencies of libmpi are in the closure *)
  Alcotest.(check bool) "libopen-pal transitively" true
    (List.mem "libopen-pal.so.0" names);
  Alcotest.(check bool) "libc" true (List.mem "libc.so.6" names)

let test_resolve_missing_without_env () =
  let site, _, path, _ = compiled () in
  (* no module loaded: the MPI libraries are not on any search path *)
  let r = Resolve.run site (Site.base_env site) (parse_at site path) in
  Alcotest.(check bool) "missing libmpi" true (List.mem "libmpi.so.0" r.Resolve.missing);
  Alcotest.(check bool) "not ok" false (Resolve.ok r)

let test_resolve_version_failure () =
  (* binary requiring GLIBC_2.7 on a glibc 2.5 site *)
  let site, installs = Fixtures.small_site ~glibc:"2.5" () in
  let install = List.hd installs in
  let env = Fixtures.session_env site install in
  (* hand-build a binary that references a newer version than the site *)
  let spec =
    Feam_elf.Spec.make
      ~needed:[ "libc.so.6" ]
      ~verneeds:[ { Feam_elf.Spec.vn_file = "libc.so.6"; vn_versions = [ "GLIBC_2.7" ] } ]
      Feam_elf.Types.X86_64
  in
  let r = Resolve.run site env spec in
  Alcotest.(check bool) "version failure" true (r.Resolve.version_failures <> []);
  let f = List.hd r.Resolve.version_failures in
  Alcotest.(check string) "which version" "GLIBC_2.7" f.Resolve.vf_version;
  Alcotest.(check string) "provider" "libc.so.6" f.Resolve.vf_provider;
  (* the consulted provider's load-order position is recorded *)
  Alcotest.(check bool) "scope pos" true (f.Resolve.vf_scope_pos <> None)

let test_resolve_arch_mismatch () =
  let site, _ = Fixtures.small_site () in
  let vfs = Site.vfs site in
  (* install a PPC library under the name a binary needs *)
  let ppc_lib =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname:"libweird.so.1"
         Feam_elf.Types.PPC64)
  in
  Vfs.add vfs "/lib64/libweird.so.1" (Vfs.Elf ppc_lib);
  let spec = Feam_elf.Spec.make ~needed:[ "libweird.so.1" ] Feam_elf.Types.X86_64 in
  let r = Resolve.run site (Site.base_env site) spec in
  Alcotest.(check bool) "arch mismatch" true
    (List.exists (fun m -> m.Resolve.am_lib = "libweird.so.1") r.Resolve.arch_mismatches)

(* -- The indexed version check ---------------------------------------------- *)

(* The version check as a scan of the closure per requirement, through
   [consulted_provider]: what [Resolve.run]'s index must reproduce. *)
let scanned_failures (r : Resolve.t) =
  let check obj_name (spec : Feam_elf.Spec.t) =
    List.concat_map
      (fun vn ->
        match Resolve.consulted_provider r.Resolve.resolved vn.Feam_elf.Spec.vn_file with
        | None -> []
        | Some (pos, p) ->
          vn.Feam_elf.Spec.vn_versions
          |> List.filter (fun v -> not (List.mem v p.Resolve.lib_spec.Feam_elf.Spec.verdefs))
          |> List.map (fun v -> (obj_name, p.Resolve.lib_name, Some pos, v)))
      spec.Feam_elf.Spec.verneeds
  in
  check "a.out" r.Resolve.root_spec
  @ List.concat_map (fun l -> check l.Resolve.lib_name l.Resolve.lib_spec) r.Resolve.resolved

let failure_tuples (r : Resolve.t) =
  List.map
    (fun f -> (f.Resolve.vf_object, f.Resolve.vf_provider, f.Resolve.vf_scope_pos, f.Resolve.vf_version))
    r.Resolve.version_failures

let qsite = lazy (fst (Fixtures.small_site ()))

(* Install each [(file name, spec)] under /qlib for one resolution of
   [root], then put the site back. *)
let resolve_with libs root =
  let site = Lazy.force qsite in
  let vfs = Site.vfs site in
  Vfs.scoped vfs @@ fun () ->
  List.iter
    (fun (name, spec) -> Vfs.add vfs ("/qlib/" ^ name) (Vfs.Elf (Feam_elf.Builder.build spec)))
    libs;
  Resolve.run site (Env.set (Site.base_env site) "LD_LIBRARY_PATH" "/qlib") root

let lib ?soname ?(needed = []) ?(verneeds = []) verdefs =
  Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ?soname ~needed ~verneeds ~verdefs
    Feam_elf.Types.X86_64

let vn file versions = { Feam_elf.Spec.vn_file = file; vn_versions = versions }

let failure_t = Alcotest.(list (pair (pair string string) (pair (option int) string)))

let nest = List.map (fun (o, p, pos, v) -> ((o, p), (pos, v)))

(* A member loaded under another name but claiming [libqb.so.1] by
   DT_SONAME comes first in load order: it is the one consulted, not the
   library loaded as [libqb.so.1]. *)
let test_soname_claimant_first () =
  let r =
    resolve_with
      [ ("libqa.so.1", lib ~soname:"libqb.so.1" [ "QV_1" ]); ("libqb.so.1", lib [ "QV_1"; "QV_2" ]) ]
      (Feam_elf.Spec.make ~needed:[ "libqa.so.1"; "libqb.so.1" ]
         ~verneeds:[ vn "libqb.so.1" [ "QV_1"; "QV_2" ] ]
         Feam_elf.Types.X86_64)
  in
  Alcotest.check failure_t "the claimant is consulted"
    (nest [ ("a.out", "libqa.so.1", Some 0, "QV_2") ])
    (nest (failure_tuples r));
  Alcotest.check failure_t "as the scan finds" (nest (scanned_failures r)) (nest (failure_tuples r))

(* Two members claim one name: the first in load order answers. *)
let test_two_claimants () =
  let r =
    resolve_with
      [
        ("libqa.so.1", lib ~soname:"libqc.so.1" ~verneeds:[ vn "libqc.so.1" [ "QV_3" ] ] []);
        ("libqb.so.1", lib ~soname:"libqc.so.1" [ "QV_1"; "QV_3" ]);
      ]
      (Feam_elf.Spec.make ~needed:[ "libqa.so.1"; "libqb.so.1" ]
         ~verneeds:[ vn "libqc.so.1" [ "QV_1" ]; vn "libqb.so.1" [ "QV_1"; "QV_2" ] ]
         Feam_elf.Types.X86_64)
  in
  Alcotest.check failure_t "first claimant, then the named library"
    (nest
       [
         ("a.out", "libqa.so.1", Some 0, "QV_1");
         ("a.out", "libqb.so.1", Some 1, "QV_2");
         ("libqa.so.1", "libqa.so.1", Some 0, "QV_3");
       ])
    (nest (failure_tuples r));
  Alcotest.check failure_t "as the scan finds" (nest (scanned_failures r)) (nest (failure_tuples r))

(* Random closures over a few names, sonames, versions and requirements:
   the index reports what the scan reports, in the same order. *)
let prop_indexed_check_matches_scan =
  let names = [ "libqa.so.1"; "libqb.so.1"; "libqc.so.1"; "libqd.so.1" ] in
  let versions = [ "QV_1"; "QV_2"; "QV_3" ] in
  let open QCheck.Gen in
  let subset l = map (fun keep -> List.filteri (fun i _ -> List.nth keep i) l) (list_repeat (List.length l) bool) in
  let verneeds = list_size (int_range 0 3) (map2 vn (oneofl names) (subset versions)) in
  let spec_gen =
    map3
      (fun (soname, needed) verneeds verdefs -> lib ?soname ~needed ~verneeds verdefs)
      (pair (opt (oneofl names)) (subset names))
      verneeds (subset versions)
  in
  let case =
    pair
      (list_size (int_range 0 4) (pair (oneofl names) spec_gen))
      (map2
         (fun needed verneeds -> Feam_elf.Spec.make ~needed ~verneeds Feam_elf.Types.X86_64)
         (subset names) verneeds)
  in
  QCheck.Test.make ~name:"resolve: indexed version check equals the scan" ~count:150
    (QCheck.make case) (fun (libs, root) ->
      let r = resolve_with libs root in
      failure_tuples r = scanned_failures r)

(* -- Ldd ---------------------------------------------------------------------- *)

let test_ldd_output () =
  let site, _, path, install = compiled () in
  let env = Fixtures.session_env site install in
  let r = Result.get_ok (Ldd.run site env path) in
  Alcotest.(check (option string)) "resolved arrow"
    (Some "/opt/openmpi-1.4-gnu/lib/libmpi.so.0")
    (Fixtures.ldd_path r "libmpi.so.0");
  Alcotest.(check bool) "version info" true
    (r.Resolve.root_spec.Feam_elf.Spec.verneeds <> [])

let test_ldd_not_found_lines () =
  let site, _, path, _ = compiled () in
  let r = Result.get_ok (Ldd.run site (Site.base_env site) path) in
  Alcotest.(check (option string)) "not found" None
    (Fixtures.ldd_path r "libmpi.so.0");
  Alcotest.(check bool) "missing listed" true
    (List.mem "libmpi.so.0" (Ldd.missing_libraries r))

let test_ldd_foreign_binary () =
  let site, _ = Fixtures.small_site () in
  let ppc_exec =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~needed:[ "libc.so.6" ] Feam_elf.Types.PPC64)
  in
  Vfs.add (Site.vfs site) "/home/user/ppcapp" (Vfs.Elf ppc_exec);
  match Ldd.run site (Site.base_env site) "/home/user/ppcapp" with
  | Error (`Not_dynamic _) -> ()
  | _ -> Alcotest.fail "ldd should refuse foreign binaries"

let test_ldd_unavailable () =
  let site, installs = Fixtures.small_site ~tools:({ Tools.full with Tools.ldd = false }) () in
  let path, _ = Fixtures.compiled_binary site installs in
  match Ldd.run site (Site.base_env site) path with
  | Error (`Tool_unavailable "ldd") -> ()
  | _ -> Alcotest.fail "expected ldd unavailable"

(* -- Exec ---------------------------------------------------------------------- *)

let quiet_params =
  { Exec.p_transient = 0.0; p_sticky = 0.0; p_copy_abi = 0.0 }

(* -- $ORIGIN ------------------------------------------------------------------ *)

(* A binary at <bindir> whose DT_RPATH or DT_RUNPATH names
   [$ORIGIN/../lib] (or [${ORIGIN}]) and a relative entry, with the
   library it needs at <bindir>/../lib. *)
let origin_binary ?rpath ?runpath () =
  let site, _ = Fixtures.small_site () in
  let vfs = Site.vfs site in
  Vfs.add vfs "/opt/app/lib/libx.so.1"
    (Vfs.Elf
       (Feam_elf.Builder.build
          (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname:"libx.so.1"
             Feam_elf.Types.X86_64)));
  Vfs.add vfs "/opt/app/bin/prog"
    (Vfs.Elf
       (Feam_elf.Builder.build
          (Feam_elf.Spec.make ?rpath ?runpath ~needed:[ "libx.so.1"; "libc.so.6" ]
             Feam_elf.Types.X86_64)));
  site

let test_origin_search_dirs () =
  let site, _ = Fixtures.small_site () in
  let spec =
    Feam_elf.Spec.make ~runpath:"$ORIGIN/../lib:${ORIGIN}/sub:lib:/abs" Feam_elf.Types.X86_64
  in
  let dirs = Search.search_dirs ~origin:"/opt/app/bin" site (Site.base_env site) spec in
  Alcotest.(check (list string)) "expanded, relative entries skipped"
    [ "/opt/app/bin/../lib"; "/opt/app/bin/sub"; "/abs" ]
    (List.filteri (fun i _ -> i < 3) dirs);
  let dirs = Search.search_dirs site (Site.base_env site) spec in
  Alcotest.(check bool) "without an origin only /abs is searched" true
    (List.hd dirs = "/abs")

let test_origin_ldd_exec () =
  List.iter
    (fun (what, rpath, runpath) ->
      let site = origin_binary ?rpath ?runpath () in
      let env = Site.base_env site in
      (match Ldd.run site env "/opt/app/bin/prog" with
      | Ok r ->
        Alcotest.(check (option string)) (what ^ ": ldd finds it")
          (Some "/opt/app/lib/libx.so.1") (Fixtures.ldd_path r "libx.so.1")
      | Error _ -> Alcotest.failf "%s: ldd failed" what);
      Alcotest.(check string) (what ^ ": exec runs") "success"
        (Exec.outcome_to_string
           (Exec.run ~params:quiet_params site env ~binary_path:"/opt/app/bin/prog"
              ~mode:Exec.Serial)))
    [
      ("runpath", None, Some "$ORIGIN/../lib:lib");
      ("rpath", Some "lib:${ORIGIN}/../lib", None);
    ]

(* A dependency reached through a symlink from another directory takes
   its $ORIGIN from the directory it was searched in, not from the link
   target's: liby.so.1 sits beside the link only, in a directory only
   liba's own runpath names, so the root's search path cannot find it
   either. *)
let test_origin_through_symlink () =
  let site, _ = Fixtures.small_site () in
  let vfs = Site.vfs site in
  let lib ?runpath ?(needed = []) soname =
    Vfs.Elf
      (Feam_elf.Builder.build
         (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname ?runpath
            ~needed Feam_elf.Types.X86_64))
  in
  Vfs.add vfs "/opt/app/lib/liba.so.1"
    (lib ~runpath:"/opt/plugins" ~needed:[ "libx.so.1" ] "liba.so.1");
  Vfs.add vfs "/store/libx/libx.so.1"
    (lib ~runpath:"$ORIGIN" ~needed:[ "liby.so.1" ] "libx.so.1");
  Vfs.add vfs "/opt/plugins/libx.so.1" (Vfs.Symlink "/store/libx/libx.so.1");
  Vfs.add vfs "/opt/plugins/liby.so.1" (lib "liby.so.1");
  Vfs.add vfs "/opt/app/bin/prog"
    (Vfs.Elf
       (Feam_elf.Builder.build
          (Feam_elf.Spec.make ~runpath:"$ORIGIN/../lib"
             ~needed:[ "liba.so.1"; "libc.so.6" ] Feam_elf.Types.X86_64)));
  let env = Site.base_env site in
  let closures = Resolve.create_memo () in
  List.iter
    (fun (what, closures) ->
      match Ldd.run ?closures site env "/opt/app/bin/prog" with
      | Ok r ->
        Alcotest.(check (option string)) (what ^ ": libx is the link target")
          (Some "/store/libx/libx.so.1") (Fixtures.ldd_path r "libx.so.1");
        Alcotest.(check (option string)) (what ^ ": liby beside the link")
          (Some "/opt/plugins/liby.so.1") (Fixtures.ldd_path r "liby.so.1");
        Alcotest.(check (list string)) (what ^ ": nothing missing") []
          (Ldd.missing_libraries r)
      | Error _ -> Alcotest.failf "%s: ldd failed" what)
    [ ("plain", None); ("memo miss", Some closures); ("memo hit", Some closures) ]

let test_relative_rpath_never_raises () =
  let site = origin_binary ~rpath:"lib:../lib" () in
  let env = Site.base_env site in
  (match Ldd.run site env "/opt/app/bin/prog" with
  | Ok r ->
    Alcotest.(check (list string)) "a relative entry names nothing" [ "libx.so.1" ]
      (Ldd.missing_libraries r)
  | Error _ -> Alcotest.fail "ldd failed");
  match
    Exec.run ~params:quiet_params site env ~binary_path:"/opt/app/bin/prog"
      ~mode:Exec.Serial
  with
  | Exec.Failure (Exec.Missing_libraries [ "libx.so.1" ]) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)


let run_with site env path =
  Exec.run ~params:quiet_params site env ~binary_path:path ~mode:(Exec.Mpi 4)

let test_exec_success () =
  let site, _, path, install = compiled () in
  let env = Fixtures.session_env site install in
  Alcotest.(check string) "success" "success"
    (Exec.outcome_to_string (run_with site env path))

let test_exec_no_stack () =
  let site, _, path, _ = compiled () in
  match run_with site (Site.base_env site) path with
  | Exec.Failure (Exec.Missing_libraries _) -> () (* libs not on path either *)
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_exec_wrong_isa () =
  let site, _, path, _ = compiled () in
  let ppc, ppc_installs = Fixtures.ppc_site () in
  (* stage the x86-64 binary on the PPC site *)
  (match Vfs.find (Site.vfs site) path with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
    Vfs.add (Site.vfs ppc) "/home/user/foreign" (Vfs.Elf bytes)
  | _ -> Alcotest.fail "no bytes");
  let env = Fixtures.session_env ppc (List.hd ppc_installs) in
  match run_with ppc env "/home/user/foreign" with
  | Exec.Failure (Exec.Wrong_isa _) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_exec_i386_on_x86_64 () =
  (* the loader's ISA rule: 32-bit x86 runs on x86-64, not the reverse *)
  let wrong_isa site machine =
    let path = "/home/user/isa_probe" in
    Vfs.add (Site.vfs site) path
      (Vfs.Elf
         (Feam_elf.Builder.build
            (Feam_elf.Spec.make ~needed:[ "libc.so.6" ] machine)));
    match run_with site (Site.base_env site) path with
    | Exec.Failure (Exec.Wrong_isa _) -> true
    | _ -> false
  in
  let x86_64, _ = Fixtures.small_site ~name:"isa64" () in
  let i386, _ = Fixtures.small_site ~name:"isa32" ~machine:Feam_elf.Types.I386 () in
  Alcotest.(check bool) "i386 compatible" false (wrong_isa x86_64 Feam_elf.Types.I386);
  Alcotest.(check bool) "reverse not" true (wrong_isa i386 Feam_elf.Types.X86_64)

let test_exec_misconfigured_stack () =
  let site, installs =
    Fixtures.small_site
      ~stacks:
        (Some
           [
             ( Fixtures.ompi14 Fixtures.gnu412,
               Stack_install.Misconfigured "admin broke it" );
           ])
      ()
  in
  let install = List.hd installs in
  let path, _ = Fixtures.compiled_binary site installs in
  let env = Fixtures.session_env site install in
  match run_with site env path with
  | Exec.Failure (Exec.Stack_misconfigured _) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_exec_foreign_defect () =
  (* home site: healthy; target: same impl with a defect affecting the
     home build version *)
  let home, home_installs = Fixtures.small_site ~name:"home" () in
  let home_path, _ = Fixtures.compiled_binary home home_installs in
  let target, target_installs =
    Fixtures.small_site ~name:"target"
      ~stacks:
        (Some
           [
             ( Fixtures.ompi14 Fixtures.gnu445,
               Stack_install.Foreign_binary_defect
                 {
                   Stack_install.affected_build_versions = [ v "1.4" ];
                   symptom = `Floating_point_error;
                 } );
           ])
      ()
  in
  (match Vfs.find (Site.vfs home) home_path with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
    Vfs.add (Site.vfs target) "/home/user/migrated" (Vfs.Elf bytes)
  | _ -> Alcotest.fail "no bytes");
  let env = Fixtures.session_env target (List.hd target_installs) in
  match run_with target env "/home/user/migrated" with
  | Exec.Failure (Exec.Floating_point_error _) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_exec_serial_mode () =
  let site, _ = Fixtures.small_site () in
  let image =
    Result.get_ok
      (Feam_toolchain.Compile.compile_serial site
         Fixtures.hello_serial)
  in
  Vfs.add_image (Site.vfs site) "/home/user/hello" image;
  match
    Exec.run ~params:quiet_params site (Site.base_env site)
      ~binary_path:"/home/user/hello" ~mode:Exec.Serial
  with
  | Exec.Success -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_exec_not_executable () =
  let site, _ = Fixtures.small_site () in
  Vfs.add (Site.vfs site) "/home/user/readme" (Vfs.Text "hello");
  match
    Exec.run ~params:quiet_params site (Site.base_env site)
      ~binary_path:"/home/user/readme" ~mode:Exec.Serial
  with
  | Exec.Failure (Exec.Not_executable _) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_exec_retry_determinism () =
  let site, _, path, install = compiled () in
  let env = Fixtures.session_env site install in
  let a = Exec.run site env ~binary_path:path ~mode:(Exec.Mpi 4) in
  let b = Exec.run site env ~binary_path:path ~mode:(Exec.Mpi 4) in
  Alcotest.(check string) "deterministic"
    (Exec.outcome_to_string a) (Exec.outcome_to_string b)

let suite =
  ( "dynlinker",
    [
      Alcotest.test_case "search order" `Quick test_search_order;
      Alcotest.test_case "runpath disables rpath" `Quick test_runpath_disables_rpath;
      Alcotest.test_case "locate precedence" `Quick test_locate_precedence;
      Alcotest.test_case "resolve closure" `Quick test_resolve_closure;
      Alcotest.test_case "resolve missing" `Quick test_resolve_missing_without_env;
      Alcotest.test_case "resolve version failure" `Quick test_resolve_version_failure;
      Alcotest.test_case "resolve arch mismatch" `Quick test_resolve_arch_mismatch;
      Alcotest.test_case "version check: soname claimant first" `Quick
        test_soname_claimant_first;
      Alcotest.test_case "version check: two claimants" `Quick test_two_claimants;
      QCheck_alcotest.to_alcotest prop_indexed_check_matches_scan;
      Alcotest.test_case "ldd output" `Quick test_ldd_output;
      Alcotest.test_case "ldd not found" `Quick test_ldd_not_found_lines;
      Alcotest.test_case "ldd foreign binary" `Quick test_ldd_foreign_binary;
      Alcotest.test_case "ldd unavailable" `Quick test_ldd_unavailable;
      Alcotest.test_case "search dirs expand $ORIGIN" `Quick test_origin_search_dirs;
      Alcotest.test_case "ldd and exec follow $ORIGIN" `Quick test_origin_ldd_exec;
      Alcotest.test_case "a symlinked dependency's $ORIGIN is its search dir" `Quick
        test_origin_through_symlink;
      Alcotest.test_case "relative rpath never raises" `Quick
        test_relative_rpath_never_raises;
      Alcotest.test_case "exec success" `Quick test_exec_success;
      Alcotest.test_case "exec no stack" `Quick test_exec_no_stack;
      Alcotest.test_case "exec wrong ISA" `Quick test_exec_wrong_isa;
      Alcotest.test_case "exec i386 compat" `Quick test_exec_i386_on_x86_64;
      Alcotest.test_case "exec misconfigured stack" `Quick test_exec_misconfigured_stack;
      Alcotest.test_case "exec foreign defect" `Quick test_exec_foreign_defect;
      Alcotest.test_case "exec serial" `Quick test_exec_serial_mode;
      Alcotest.test_case "exec not executable" `Quick test_exec_not_executable;
      Alcotest.test_case "exec retry determinism" `Quick test_exec_retry_determinism;
    ] )
