(* Evaluating cells never leaves a site modified.  Each pass below runs
   between two digests of every site it touches ({!Fixtures.site_digest}:
   the file system plus the loader-cache state, the ld.so.conf
   directories and the installed stacks), which must be equal: the
   migration matrix, a drift prediction pass plus one re-evaluation, one
   serve evidence update, a site ranking and agree scenarios.  Within a
   cell, the extended target phase leaves only its plan behind: the
   copies its prediction names. *)

open Feam_sysmodel
open Feam_evalharness
module Invalidate = Feam_drift.Invalidate

let params = Params.default
let seed = params.Params.seed

let check_unchanged what sites f =
  let before = Fixtures.site_digest sites in
  let r = f () in
  Alcotest.(check (list string)) (what ^ " leaves every site as it was")
    before (Fixtures.site_digest sites);
  r

let test_run_all () =
  let sites = Sites.build_all params in
  let binaries =
    Testset.build params sites (Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
  in
  let migrations =
    check_unchanged "Migrate.run_all" sites (fun () ->
        Migrate.run_all params sites binaries)
  in
  Alcotest.(check int) "the whole matrix ran" 803 (List.length migrations)

(* The MPI-stack determinant's probes, and the bundle copies they stage,
   are gone when the extended target phase returns: nothing remains
   under the probe directory, and the staging directory holds exactly
   the copies the prediction names, which the after-resolution run then
   sees through LD_LIBRARY_PATH. *)
let test_extended_leaves_its_plan () =
  let open Feam_core in
  let sites = Sites.build_all params in
  let binaries =
    Testset.build params sites (Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
  in
  let ctx = Eval_ctx.create () in
  let staging = Config.default.Config.staging_dir in
  let under vfs dir = Vfs.find_under vfs dir (fun _ -> true) in
  let leaks =
    List.concat_map
      (fun (binary, target) ->
        Migrate.with_staged binary target @@ fun staged_path ->
        match Migrate.source_bundle ~ctx binary with
        | Error _ -> []
        | Ok bundle -> (
          match
            Phases.target_phase ~ctx Config.default target
              (Site.base_env target) ~bundle ~binary_path:staged_path ()
          with
          | Error _ -> []
          | Ok report ->
            let p = Report.prediction report in
            let named =
              match p.Predict.verdict with
              | Predict.Ready plan -> List.map snd plan.Predict.staged_copies
              | Predict.Not_ready _ -> (
                match p.Predict.determinants.Predict.libs with
                | Some l ->
                  List.map
                    (fun name -> staging ^ "/" ^ name)
                    l.Predict.resolved_by_copies
                | None -> [])
            in
            let cell = binary.Testset.id ^ "->" ^ Site.name target in
            let vfs = Site.vfs target in
            (if under vfs "/tmp/feam/probes" = [] then []
             else [ cell ^ ": probes left behind" ])
            @
            if under vfs staging = List.sort_uniq String.compare named then []
            else [ cell ^ ": staged copies the prediction does not name" ]))
      (Migrate.cells sites binaries)
  in
  Alcotest.(check (list string)) "every cell leaves only its plan" [] leaks

let test_drift_passes () =
  let specs = Driftrun.small_specs () in
  let benchmarks = Driftrun.small_benchmarks () in
  let ctx = Feam_core.Eval_ctx.create () in
  let sites0, binaries0 = Driftrun.build_world params specs benchmarks [] in
  let cells =
    check_unchanged "Driftrun.predict_all" sites0 (fun () ->
        Driftrun.predict_all ~ctx sites0 binaries0)
  in
  let before =
    Driftrun.snapshot_of_world ~ctx ~epoch:0 ~seed ~label:"" sites0 binaries0
      ~cells
  in
  let p = { Driftrun.pe_site = "fir"; pe_what = Scengen.Stale_ld_cache } in
  let sites, binaries = Driftrun.build_world params specs benchmarks [ p ] in
  (* the rebuilt world's own pass *)
  let ctx = Feam_core.Eval_ctx.create () in
  let reevaluated =
    check_unchanged "Driftrun.reevaluate" sites (fun () ->
        let after =
          Driftrun.snapshot_of_world ~ctx ~epoch:1 ~seed ~label:"" sites
            binaries ~cells
        in
        let plan = Invalidate.affected before after in
        Driftrun.reevaluate ~ctx sites binaries plan.Invalidate.pl_affected)
  in
  Alcotest.(check bool) "the perturbation reached some cells" true
    (reevaluated <> [])

let test_serve_update () =
  let engine = Feam_serve.Engine.create ~seed () in
  let sites = Feam_serve.Engine.sites engine in
  (* The update's own evidence change, fir's cache going stale, is the
     only change it may leave behind. *)
  let fir = Sites.find_by_name sites "fir" in
  Site.set_ld_cache_current fir false;
  let expected = Fixtures.site_digest sites in
  Site.set_ld_cache_current fir true;
  let response =
    Feam_serve.Engine.handle engine
      (Feam_serve.Protocol.Update_evidence
         { ue_site = "fir"; ue_action = Feam_serve.Protocol.Stale_ld_cache })
  in
  Alcotest.(check (list string))
    "update-evidence leaves every site as its evidence change alone would"
    expected (Fixtures.site_digest sites);
  let reevaluated =
    match Feam_util.Json.parse response with
    | Ok json -> Feam_util.Json.member "cells_reevaluated" json
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "the update re-evaluated cells" true
    (match reevaluated with Some (Feam_util.Json.Int n) -> n > 0 | _ -> false)

(* The target phase at every candidate site, as `feam rank` runs it. *)
let test_ranking () =
  let sites = Sites.build_all params in
  let binary =
    List.hd (Testset.build params sites [ List.hd Feam_suites.Npb.all ])
  in
  let bundle =
    match Migrate.source_bundle binary with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let targets =
    List.filter (fun s -> Site.name s <> Site.name binary.Testset.home) sites
  in
  Alcotest.(check int) "four candidate sites" 4 (List.length targets);
  let ranked =
    check_unchanged "Ranking.rank" sites (fun () ->
        Ranking.rank Feam_core.Config.default bundle targets)
  in
  Alcotest.(check int) "every candidate ranked" 4 (List.length ranked)

(* The agree harness stages its binary at the scenario's target. *)
let test_agree_run_one () =
  List.iter
    (fun index ->
      let sc = Scengen.build ~seed:42 ~index () in
      ignore
        (check_unchanged
           ("Harness.run_one " ^ Scengen.id sc)
           [ sc.Scengen.sc_home; sc.Scengen.sc_target ]
           (fun () -> Feam_agree.Harness.run_one sc)))
    [ 0; 1; 2; 3; 4 ]

(* The bytes of the seed-42 world are pinned: every site's digest and
   every compiled test binary.  Byte and text kernels (the ELF builder,
   the toolchain's symbol model) may get faster, never different.  The
   build-ID counter is reset first, so test order cannot move them. *)
let pinned_site_digests =
  [
    "ranger 8150805459e5636907900e5bc6cb6d66";
    "forge 981c4e807b6cc164ad5259f147fd64bf";
    "blacklight 37ed51780561395dbc1f2a4f10e00867";
    "india 05a407e5f31e7365d844db94076b3b53";
    "fir 8892f215ddbda7908eea8044eeff5f1f";
  ]

(* The same lines in full, with each site's loader-cache state, ld.so.conf
   directories and stacks. *)
let pinned_site_lines_digest = "18272c19192959590a40838859ec6361"

let pinned_testset_digest = "75442fd48730dbdfe8112f6174a870a8"

let test_pinned_bytes () =
  let sites = Sites.build_all params in
  let binaries =
    Testset.build params sites (Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
  in
  let lines = Fixtures.site_digest sites in
  Alcotest.(check (list string)) "site file digests" pinned_site_digests
    (List.map
       (fun l ->
         match String.split_on_char ' ' l with
         | name :: digest :: _ -> name ^ " " ^ digest
         | _ -> l)
       lines);
  Alcotest.(check string) "site digest lines" pinned_site_lines_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)));
  let images =
    List.map
      (fun b -> b.Testset.id ^ " " ^ Digest.to_hex (Digest.string b.Testset.bytes))
      binaries
  in
  Alcotest.(check int) "test binaries" 264 (List.length images);
  Alcotest.(check string) "test binary images" pinned_testset_digest
    (Digest.to_hex (Digest.string (String.concat "\n" images)))

let suite =
  ( "site integrity",
    [
      Alcotest.test_case "seed-42 world bytes are pinned" `Quick test_pinned_bytes;
      Alcotest.test_case "Migrate.run_all" `Slow test_run_all;
      Alcotest.test_case "extended target phase leaves only its plan" `Slow
        test_extended_leaves_its_plan;
      Alcotest.test_case "drift prediction and re-evaluation" `Quick
        test_drift_passes;
      Alcotest.test_case "serve update-evidence" `Quick test_serve_update;
      Alcotest.test_case "Ranking.rank" `Quick test_ranking;
      Alcotest.test_case "agree Harness.run_one" `Quick test_agree_run_one;
    ] )
