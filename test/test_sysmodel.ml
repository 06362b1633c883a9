(* Tests for the site model: distro rendering, batch scripts, the site
   record, user-environment management tools and the tool emulations. *)

open Feam_util
open Feam_sysmodel

let v = Version.of_string_exn

(* -- Distro --------------------------------------------------------------- *)

let test_distro_release_files () =
  let centos = Distro.make Distro.Centos ~version:(v "5.6") ~kernel:(v "2.6.18") in
  let path, body = Distro.release_file centos in
  Alcotest.(check string) "centos path" "/etc/redhat-release" path;
  Alcotest.(check bool) "centos body" true (Str_split.contains ~sub:"CentOS" body);
  let sles = Distro.make Distro.Sles ~version:(v "11") ~kernel:(v "2.6.32") in
  let path, body = Distro.release_file sles in
  Alcotest.(check string) "sles path" "/etc/SuSE-release" path;
  Alcotest.(check bool) "sles body" true (Str_split.contains ~sub:"SUSE" body)

let test_distro_proc_version () =
  let rhel = Distro.make Distro.Rhel ~version:(v "5.6") ~kernel:(v "2.6.18") in
  let text = Distro.proc_version rhel ~machine:Feam_elf.Types.X86_64 in
  Alcotest.(check bool) "kernel in text" true (Str_split.contains ~sub:"2.6.18" text);
  Alcotest.(check bool) "starts with Linux version" true
    (String.starts_with ~prefix:"Linux version" text)

let test_distro_kernel_triple () =
  let d = Distro.make Distro.Centos ~version:(v "5.6") ~kernel:(v "2.6.18") in
  Alcotest.(check (triple int int int)) "triple" (2, 6, 18) (Distro.kernel_triple d)

let test_lib_dirs () =
  let dirs64 = Distro.default_lib_dirs ~bits:`B64 in
  Alcotest.(check string) "lib64 first" "/lib64" (List.hd dirs64);
  let dirs32 = Distro.default_lib_dirs ~bits:`B32 in
  Alcotest.(check string) "lib first" "/lib" (List.hd dirs32)

(* -- Batch ----------------------------------------------------------------- *)

let test_batch_queues () =
  let b =
    Batch.make
      ~queues:
        [
          { Batch.queue_name = "debug"; wait_seconds = 5.0 };
          { Batch.queue_name = "batch"; wait_seconds = 600.0 };
        ]
  in
  Alcotest.(check string) "debug first" "debug" (Batch.debug_queue b).Batch.queue_name;
  Alcotest.(check bool) "lookup" true (Batch.queue_by_name b "batch" <> None);
  Alcotest.(check bool) "missing" true (Batch.queue_by_name b "zzz" = None);
  Alcotest.check_raises "no queues" (Invalid_argument "Batch.make: need at least one queue")
    (fun () -> ignore (Batch.make ~queues:[]))

(* -- Site ------------------------------------------------------------------ *)

let test_site_basics () =
  let site, installs = Fixtures.small_site () in
  Alcotest.(check string) "name" "testbed" (Site.name site);
  Alcotest.(check int) "two installs" 2 (List.length (Site.stack_installs site));
  Alcotest.(check bool) "64-bit" true (Site.bits site = `B64);
  let slug = Stack_install.module_name (List.hd installs) in
  Alcotest.(check bool) "find by slug" true (Site.find_stack_install site ~slug <> None);
  Alcotest.(check bool) "missing slug" true
    (Site.find_stack_install site ~slug:"nope" = None)

let test_site_keyed_bool_stable () =
  let site, _ = Fixtures.small_site () in
  let a = Site.keyed_bool site ~p:0.5 "k" in
  Alcotest.(check bool) "stable" a (Site.keyed_bool site ~p:0.5 "k")

let test_ld_conf () =
  let site, _ = Fixtures.small_site () in
  (* fixture compilers include Intel -> its runtime dir is registered *)
  Alcotest.(check bool) "intel dir registered" true
    (List.exists
       (fun d -> Str_split.contains ~sub:"intel" d)
       (Site.ld_conf_dirs site));
  let n = List.length (Site.ld_conf_dirs site) in
  Site.add_ld_conf_dir site "/custom/lib";
  Site.add_ld_conf_dir site "/custom/lib" (* idempotent *);
  Alcotest.(check int) "added once" (n + 1) (List.length (Site.ld_conf_dirs site))

(* -- Stack_install ----------------------------------------------------------- *)

let test_stack_install_health () =
  let site, installs = Fixtures.small_site () in
  ignore site;
  let install = List.hd installs in
  Alcotest.(check bool) "functioning launches" true (Stack_install.launches_native install);
  Alcotest.(check bool) "accepts same version" true
    (Stack_install.accepts_foreign_build install ~build_version:(v "1.4") = Ok ());
  let bad =
    Stack_install.make
      ~health:(Stack_install.Misconfigured "broken")
      ~prefix:"/opt/x" (Fixtures.ompi14 Fixtures.gnu412)
  in
  Alcotest.(check bool) "misconfigured does not launch" false
    (Stack_install.launches_native bad);
  let defect =
    Stack_install.make
      ~health:
        (Stack_install.Foreign_binary_defect
           {
             Stack_install.affected_build_versions = [ v "1.3" ];
             symptom = `Abi_incompatibility;
           })
      ~prefix:"/opt/y" (Fixtures.ompi14 Fixtures.gnu412)
  in
  Alcotest.(check bool) "defect launches native" true (Stack_install.launches_native defect);
  (match Stack_install.accepts_foreign_build defect ~build_version:(v "1.3") with
  | Error (`Defect `Abi_incompatibility) -> ()
  | _ -> Alcotest.fail "expected ABI defect");
  Alcotest.(check bool) "unaffected version fine" true
    (Stack_install.accepts_foreign_build defect ~build_version:(v "1.4") = Ok ())

(* -- Modules tool ------------------------------------------------------------ *)

let test_modules_avail () =
  let site, _ = Fixtures.small_site () in
  match Modules_tool.render_avail site with
  | Some listing ->
    Alcotest.(check bool) "lists ompi" true
      (Str_split.contains ~sub:"openmpi-1.4-gnu" listing);
    Alcotest.(check bool) "lists mvapich" true
      (Str_split.contains ~sub:"mvapich2-1.7a2-intel" listing)
  | None -> Alcotest.fail "no listing"

let test_modules_softenv () =
  let site, _ = Fixtures.small_site ~modules_flavor:Site.Softenv () in
  match Modules_tool.render_avail site with
  | Some listing ->
    Alcotest.(check bool) "softenv keys" true
      (Str_split.contains ~sub:"+openmpi-1.4-gnu" listing)
  | None -> Alcotest.fail "no softenv listing"

let test_modules_none () =
  let site, _ = Fixtures.small_site ~modules_flavor:Site.No_tool () in
  Alcotest.(check bool) "no tool" true (Modules_tool.render_avail site = None)

let test_modules_load_and_current () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let env = Modules_tool.load_stack (Site.base_env site) install in
  Alcotest.(check (list string)) "loaded" [ Stack_install.module_name install ]
    (Env.paths env "LOADEDMODULES");
  Alcotest.(check bool) "lib dir on path" true
    (List.mem (Stack_install.lib_dir install) (Env.ld_library_path env));
  (match Modules_tool.current_stack site env with
  | Some found ->
    Alcotest.(check string) "current matches"
      (Stack_install.module_name install)
      (Stack_install.module_name found)
  | None -> Alcotest.fail "no current stack");
  Alcotest.(check bool) "empty session has none" true
    (Modules_tool.current_stack site (Site.base_env site) = None)

let test_current_stack_path_fallback () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  (* PATH contains the stack bin dir, but no LOADEDMODULES *)
  let env = Env.prepend_path (Site.base_env site) "PATH" (Stack_install.bin_dir install) in
  match Modules_tool.current_stack site env with
  | Some found ->
    Alcotest.(check string) "found via PATH"
      (Stack_install.module_name install)
      (Stack_install.module_name found)
  | None -> Alcotest.fail "PATH fallback failed"

(* -- Site state and the evaluation memo ------------------------------- *)

(* The pass memo keys an entry on its site's state — the file system's
   generation and the setter fields — and not on how often the site
   changed: a lookup misses in a state not seen since the site's last
   file-system write and hits in one seen since, also after the site
   left it.  A setter that changes nothing and a scope's writes change
   no state. *)
let test_memo_keys_on_site_state () =
  let site, installs = Fixtures.small_site () in
  let memo = Feam_core.Pass_memo.create () in
  let runs = ref 0 in
  let lookup () =
    let before = !runs in
    ignore
      (Feam_core.Pass_memo.find_or_source memo ~config:Feam_core.Config.default
         site (Site.base_env site) ~binary_path:"/home/user/app" ~image:None
         (fun () ->
           incr runs;
           Error "no binary")
        : (Feam_core.Bundle.t, string) result);
    !runs - before
  in
  let check what expected = Alcotest.(check int) what expected (lookup ()) in
  let states () =
    match Feam_core.Pass_memo.held memo with
    | [ (_, _, states) ] -> List.length states
    | _ -> Alcotest.fail "the memo holds one site"
  in
  check "a first lookup misses" 1;
  check "the same state hits" 0;
  Site.set_ld_cache_current site (Site.ld_cache_current site);
  check "setting the loader cache to its value changes no state" 0;
  Site.set_ld_cache_current site false;
  check "a stale loader cache is a new state" 1;
  Site.set_ld_cache_current site true;
  check "back to a current cache: a state seen before" 0;
  Site.set_ld_cache_current site false;
  check "stale again: seen before too" 0;
  Alcotest.(check int) "one table per loader-cache flag" 2 (states ());
  let vfs = Site.vfs site in
  Vfs.scoped vfs (fun () -> Vfs.add vfs "/tmp/feam/x" (Vfs.Text ""));
  check "a scoped write changes no state" 0;
  Vfs.add vfs "/opt/x" (Vfs.Text "");
  check "a lasting write is a new state" 1;
  Alcotest.(check int) "the write dropped the other flag's table" 1 (states ());
  Site.set_ld_cache_current site true;
  check "the other flag after the write misses again" 1;
  Site.add_ld_conf_dir site "/custom/lib";
  check "a new ld.so.conf dir is a new state" 1;
  Site.add_ld_conf_dir site "/custom/lib";
  check "a registered one is not" 0;
  Alcotest.(check int) "the shorter list's tables are gone" 1 (states ());
  Site.add_stack_install site (List.hd installs);
  check "a stack install is a new state" 1;
  Site.set_ld_cache_current site false;
  check "and so is the other flag with it" 1;
  Alcotest.(check int) "at most two setter states" 2 (states ())

let source_misses () =
  Option.value ~default:0
    (Feam_obs.Metrics.counter_value "phases.source_memo.miss")

(* A serve update that changes nothing leaves every memo entry valid, so
   its recapture reruns no source phase; a real one reruns exactly the
   source phases of the binaries homed at the changed site. *)
let test_inert_update_no_source_miss () =
  let module Engine = Feam_serve.Engine in
  let module Protocol = Feam_serve.Protocol in
  let engine =
    Engine.create ~seed:Feam_evalharness.Params.default.Feam_evalharness.Params.seed ()
  in
  let update action =
    let before = source_misses () in
    ignore
      (Engine.handle ~write_file:(fun _ _ -> ()) engine
         (Protocol.Update_evidence { ue_site = "fir"; ue_action = action })
        : string);
    source_misses () - before
  in
  let homed_at_fir =
    List.length
      (List.filter
         (fun (b : Feam_drift.Snapshot.binary_state) ->
           b.Feam_drift.Snapshot.bs_home = "fir")
         (Engine.snapshot engine).Feam_drift.Snapshot.binaries)
  in
  Alcotest.(check bool) "some binaries are homed at fir" true (homed_at_fir > 0);
  Alcotest.(check int) "a real update reruns fir's source phases only"
    homed_at_fir (update Protocol.Stale_ld_cache);
  Alcotest.(check int) "an inert update reruns none" 0
    (update Protocol.Stale_ld_cache)

(* An evaluation context kept across 50 alternating loader-cache
   toggles holds entries for one file-system generation per site, its
   current one, and at most two setter states.  By round 3 each site
   has been seen in both states, so later rounds add no entry. *)
let test_memo_one_generation_per_site () =
  let module Driftrun = Feam_evalharness.Driftrun in
  let sites, binaries =
    Driftrun.build_world Feam_evalharness.Params.default
      (Driftrun.small_specs ()) (Driftrun.small_benchmarks ()) []
  in
  let ctx = Feam_core.Eval_ctx.create () in
  let memo = Option.get ctx.Feam_core.Eval_ctx.memo in
  let round i =
    let site = List.nth sites (i mod 2) in
    Site.set_ld_cache_current site (i mod 4 >= 2);
    List.iter (fun b -> ignore (Feam_evalharness.Migrate.source_bundle ~ctx b)) binaries;
    List.iter
      (fun (b, target) ->
        if target == site then ignore (Driftrun.predict_cell ~ctx b target))
      (Driftrun.all_cells sites binaries)
  in
  for i = 0 to 3 do
    round i
  done;
  let entries () =
    List.fold_left
      (fun acc (_, _, states) -> List.fold_left ( + ) acc states)
      0 (Feam_core.Pass_memo.held memo)
  in
  let first = entries () in
  for i = 4 to 51 do
    round i
  done;
  let held = Feam_core.Pass_memo.held memo in
  Alcotest.(check (list (pair string int)))
    "one file-system generation per site, its current one"
    (List.sort compare
       (List.map (fun s -> (Site.name s, Vfs.generation (Site.vfs s))) sites))
    (List.map (fun (name, gen, _) -> (name, gen)) held);
  List.iter
    (fun (name, _, states) ->
      Alcotest.(check bool)
        (name ^ ": at most two setter states") true
        (List.length states <= 2))
    held;
  Alcotest.(check bool) "no more entries than after round 3" true
    (entries () <= first)

let suite =
  ( "sysmodel",
    [
      Alcotest.test_case "distro release files" `Quick test_distro_release_files;
      Alcotest.test_case "distro /proc/version" `Quick test_distro_proc_version;
      Alcotest.test_case "distro kernel triple" `Quick test_distro_kernel_triple;
      Alcotest.test_case "default lib dirs" `Quick test_lib_dirs;
      Alcotest.test_case "batch queues" `Quick test_batch_queues;
      Alcotest.test_case "site basics" `Quick test_site_basics;
      Alcotest.test_case "site keyed bool" `Quick test_site_keyed_bool_stable;
      Alcotest.test_case "ld.so.conf dirs" `Quick test_ld_conf;
      Alcotest.test_case "stack install health" `Quick test_stack_install_health;
      Alcotest.test_case "modules avail" `Quick test_modules_avail;
      Alcotest.test_case "softenv avail" `Quick test_modules_softenv;
      Alcotest.test_case "no tool" `Quick test_modules_none;
      Alcotest.test_case "module load/current" `Quick test_modules_load_and_current;
      Alcotest.test_case "current via PATH" `Quick test_current_stack_path_fallback;
      Alcotest.test_case "the memo keys on the site's state" `Quick
        test_memo_keys_on_site_state;
      Alcotest.test_case "an inert update reruns no source phase" `Quick
        test_inert_update_no_source_miss;
      Alcotest.test_case "the memo holds one generation per site" `Slow
        test_memo_one_generation_per_site;
    ] )
