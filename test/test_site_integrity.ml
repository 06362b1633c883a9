(* Evaluating cells never leaves a site modified.  Each pass below runs
   between two digests of every site's file system (path, kind, bytes,
   declared size), which must be equal: the migration matrix, a drift
   prediction pass plus one re-evaluation, and one serve evidence
   update. *)

open Feam_sysmodel
open Feam_evalharness
module Invalidate = Feam_drift.Invalidate

let params = Params.default
let seed = params.Params.seed

let file_line vfs path =
  match Vfs.find vfs path with
  | None -> path ^ " missing"
  | Some { Vfs.kind; declared_size } ->
    let tag, body =
      match kind with
      | Vfs.Elf b -> ("elf", b)
      | Vfs.Script b -> ("script", b)
      | Vfs.Text b -> ("text", b)
      | Vfs.Symlink b -> ("symlink", b)
    in
    Printf.sprintf "%s %s %d %s" path tag declared_size
      (Digest.to_hex (Digest.string body))

(* One line per site: its name and the digest of its sorted files. *)
let digest sites =
  List.map
    (fun site ->
      let vfs = Site.vfs site in
      Site.name site ^ " "
      ^ Digest.to_hex
          (Digest.string
             (String.concat "\n" (List.map (file_line vfs) (Vfs.all_paths vfs)))))
    sites

let check_unchanged what sites f =
  let before = digest sites in
  let r = f () in
  Alcotest.(check (list string)) (what ^ " leaves every site as it was")
    before (digest sites);
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
  let reevaluated =
    check_unchanged "Driftrun.reevaluate" sites (fun () ->
        let after =
          Driftrun.snapshot_of_world ~ctx ~epoch:1 ~seed ~label:"" sites
            binaries ~cells
        in
        let plan = Invalidate.affected before after in
        Driftrun.reevaluate ~ctx:(Feam_core.Eval_ctx.next_pass ctx) sites
          binaries plan.Invalidate.pl_affected)
  in
  Alcotest.(check bool) "the perturbation reached some cells" true
    (reevaluated <> [])

let test_serve_update () =
  let engine = Feam_serve.Engine.create ~seed () in
  let response =
    check_unchanged "update-evidence" (Feam_serve.Engine.sites engine)
      (fun () ->
        Feam_serve.Engine.handle engine
          (Feam_serve.Protocol.Update_evidence
             { ue_site = "fir"; ue_action = Feam_serve.Protocol.Stale_ld_cache }))
  in
  let reevaluated =
    match Feam_util.Json.parse response with
    | Ok json -> Feam_util.Json.member "cells_reevaluated" json
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "the update re-evaluated cells" true
    (match reevaluated with Some (Feam_util.Json.Int n) -> n > 0 | _ -> false)

let suite =
  ( "site integrity",
    [
      Alcotest.test_case "Migrate.run_all" `Slow test_run_all;
      Alcotest.test_case "drift prediction and re-evaluation" `Quick
        test_drift_passes;
      Alcotest.test_case "serve update-evidence" `Quick test_serve_update;
    ] )
