(* Phase timing and bundle-size measurement (paper §VI.C: both FEAM
   phases always completed in under five minutes, and a per-site bundle
   of shared-library copies averaged about 45 MB).

   The measurement itself is a thin wrapper over the observability
   layer: each phase runs under an `eval.*` span via
   {!Feam_obs.with_sim_phase}, which also feeds the shared
   eval.phase_s{phase=...} histograms that
   {!phase_breakdown_table} and the sweep report read back. *)

open Feam_util
open Feam_sysmodel

type phase_timing = {
  binary_id : string;
  target : string;
  source_seconds : float;
  target_seconds : float;
}

let phase_metric = "eval.phase_s"

(* Time FEAM's phases for one migration, on simulated wall clocks. *)
let time_migration binary target =
  Feam_obs.Trace.with_span "eval.migration"
    ~attrs:
      [
        ("binary", Feam_obs.Span.Str binary.Testset.id);
        ("target", Feam_obs.Span.Str (Site.name target));
      ]
  @@ fun () ->
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let source_clock = Sim_clock.create () in
  let bundle =
    Feam_obs.with_sim_phase ~name:"eval.source_phase" ~metric:phase_metric
      ~phase:"source" source_clock
    @@ fun () -> Migrate.source_bundle ~clock:source_clock binary
  in
  let target_clock = Sim_clock.create () in
  Feam_obs.with_sim_phase ~name:"eval.target_phase" ~metric:phase_metric
    ~phase:"target" target_clock
  @@ fun () ->
  (match bundle with
  | Ok bundle ->
    ignore
      (Feam_core.Phases.target_phase ~clock:target_clock
         Feam_core.Config.default target
         (Site.base_env target) ~bundle ())
  | Error _ -> ());
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  {
    binary_id = binary.Testset.id;
    target = Site.name target;
    source_seconds = Sim_clock.elapsed source_clock;
    target_seconds = Sim_clock.elapsed target_clock;
  }

(* Time a sample of migrations: one binary per home site to every other
   matching site. *)
let sample_timings sites binaries =
  let sample =
    (* first binary homed at each site *)
    List.filter_map
      (fun site ->
        List.find_opt
          (fun b -> Site.name b.Testset.home = Site.name site)
          binaries)
      sites
  in
  List.map (fun (b, t) -> time_migration b t) (Migrate.cells sites sample)

(* Per-phase breakdown, read back from the observability registry: one
   row per phase the harness timed since the last reset, with the count
   of runs over the paper's five-minute budget as its own column. *)
let phase_breakdown_table () =
  let row phase =
    match
      Feam_obs.Metrics.histogram_value phase_metric
        ~labels:[ ("phase", phase) ]
    with
    | None -> [ phase; "0"; "-"; "-"; "0" ]
    | Some h ->
      let over_300s =
        (* the overflow bucket of sim_seconds_bounds ends at 300 s *)
        h.Feam_obs.Metrics.counts.(Array.length h.Feam_obs.Metrics.counts - 1)
      in
      [
        phase;
        string_of_int h.Feam_obs.Metrics.count;
        Printf.sprintf "%.1f" (Feam_obs.Metrics.hist_mean h);
        Printf.sprintf "%.1f" h.Feam_obs.Metrics.sum;
        string_of_int over_300s;
      ]
  in
  Table.make ~title:"FEAM phase breakdown (simulated seconds, via feam.obs)"
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Phase"; "Runs"; "Mean s"; "Total s"; "> 5 min" ]
    [ row "source"; row "target" ]

let max_seconds timings =
  List.fold_left
    (fun acc t -> Float.max acc (Float.max t.source_seconds t.target_seconds))
    0.0 timings

(* Per-site bundle sizes: the source-phase bundles of every test binary
   homed at a site, merged (distinct library copies counted once) — the
   quantity the paper reports averaging ~45 MB. *)
let site_bundle_bytes binaries site =
  let bundles =
    binaries
    |> List.filter (fun b -> Site.name b.Testset.home = Site.name site)
    |> List.filter_map (fun b -> Result.to_option (Migrate.source_bundle b))
  in
  Feam_core.Bundle.merged_library_bytes bundles

let bundle_report sites binaries =
  List.map
    (fun site ->
      (Site.name site, site_bundle_bytes binaries site))
    sites

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)
