(* What each per-layer metric should move.  The gated end-to-end metrics
   are the same two on every workload: setup_s, and wall_norm_s -- the
   workload's time per unit of work at the probe's reference memory
   speed.  The unit is an 803-cell matrix (matrix_wall_s), a drift epoch
   reaching 200 cells (drift_epoch_p50_s), a pass over 200 agree
   scenarios (agree_wall_s), or the serve engine's busy seconds per 1000
   scheduled requests.  The named per-workload metrics in brackets are
   printed beside them.  A later change that claims a gain on a layer
   cites these names. *)

type claim = {
  metric : string;
  unit : string;
  better : string;
  timed : string;  (* the public call the span wraps *)
  moves : string;  (* end-to-end metric and workload it should move *)
  flat : string;  (* where it should stay flat *)
}

type layer = { layer : string; call : string; l_moves : string; l_flat : string }

let phase_moves =
  "wall_norm_s on matrix (matrix_wall_s) and drift (drift_epoch_p50_s); serve_update_p50_ms \
   on serve"

let phase_flat = "serve_predict_p50_us on serve"

let agree_only = "wall_norm_s on agree (agree_wall_s) only"

let drift_only = "wall_norm_s on drift (drift_epoch_p50_s)"

let world_moves = "setup_s on every workload; wall_norm_s on drift (every epoch rebuilds the world)"

let layers =
  [
    { layer = "sites.build"; call = "Sites.build_specs"; l_moves = world_moves;
      l_flat = "wall_norm_s on matrix and agree" };
    { layer = "testset.build"; call = "Testset.build"; l_moves = world_moves;
      l_flat = "wall_norm_s on matrix and agree" };
    { layer = "migrate.cell"; call = "Migrate.migrate, replayed step by step";
      l_moves = "wall_norm_s on matrix (matrix_wall_s)"; l_flat = "serve, drift and agree" };
    { layer = "phases.source"; call = "Phases.source_phase"; l_moves = phase_moves;
      l_flat = phase_flat };
    { layer = "phases.target_basic";
      call = "Phases.target_phase without a bundle, as bdc.describe + edc.discover + tec.evaluate";
      l_moves = phase_moves; l_flat = phase_flat };
    { layer = "phases.target_extended";
      call = "Phases.target_phase with the bundle, as edc.discover + tec.evaluate";
      l_moves = phase_moves; l_flat = phase_flat };
    { layer = "bdc.describe"; call = "Bdc.describe";
      l_moves = phase_moves ^ "; wall_norm_s on agree (agree_wall_s)"; l_flat = phase_flat };
    { layer = "edc.discover"; call = "Edc.discover";
      l_moves = phase_moves ^ "; wall_norm_s on agree (agree_wall_s)"; l_flat = phase_flat };
    { layer = "tec.evaluate"; call = "Tec.evaluate";
      l_moves = phase_moves ^ "; wall_norm_s on agree (agree_wall_s)"; l_flat = phase_flat };
    { layer = "exec.run"; call = "Feam_dynlinker.Exec.run";
      l_moves = "wall_norm_s on matrix (matrix_wall_s) and agree (agree_wall_s)";
      l_flat = "drift and serve (no ground-truth execution there)" };
    { layer = "resolve.run"; call = "Feam_dynlinker.Resolve.run"; l_moves = agree_only;
      l_flat = "matrix" };
    { layer = "analysis.engine"; call = "Context.of_bundle + Engine.run"; l_moves = agree_only;
      l_flat = "matrix" };
    { layer = "symcheck.of_resolve"; call = "Symcheck.of_resolve"; l_moves = agree_only;
      l_flat = "matrix" };
    { layer = "factbase.spec_of_bytes"; call = "Factbase.spec_of_bytes"; l_moves = agree_only;
      l_flat = "matrix" };
    { layer = "driftrun.build_world";
      call = "Driftrun.build_world, as sites.build + testset.build + the perturbations";
      l_moves = drift_only; l_flat = "matrix and agree" };
    { layer = "driftrun.snapshot"; call = "Driftrun.snapshot_of_world"; l_moves = drift_only;
      l_flat = "matrix and agree" };
    { layer = "invalidate.affected"; call = "Invalidate.affected"; l_moves = drift_only;
      l_flat = "matrix and agree" };
    { layer = "driftrun.predict_cell"; call = "Driftrun.predict_cell";
      l_moves = drift_only ^ "; serve_update_p50_ms on serve"; l_flat = "matrix and agree" };
    { layer = "invalidate.merge"; call = "Invalidate.merge"; l_moves = drift_only;
      l_flat = "matrix and agree" };
    { layer = "protocol.parse"; call = "Protocol.parse";
      l_moves = "serve_predict_p50_us on serve"; l_flat = "serve_update_p50_ms" };
    { layer = "engine.predict"; call = "Engine.handle on predict";
      l_moves = "serve_predict_p50_us on serve"; l_flat = "serve_update_p50_ms" };
    { layer = "engine.predict_batch"; call = "Engine.handle on predict-batch";
      l_moves = "serve_predict_p50_us on serve"; l_flat = "serve_update_p50_ms" };
    { layer = "engine.update"; call = "Engine.handle on update-evidence";
      l_moves =
        "wall_norm_s, serve_update_p50_ms, serve_update_p90_ms and serve_predict_p99_us on serve";
      l_flat = "serve_predict_p50_us" };
    { layer = "scengen.build"; call = "Scengen.build"; l_moves = "setup_s on agree";
      l_flat = "matrix, serve and drift" };
    { layer = "harness.run_one"; call = "Harness.run_one, replayed step by step";
      l_moves = "wall_norm_s on agree (agree_wall_s)"; l_flat = "matrix, serve and drift" };
  ]

let health = "nothing: benchmark health"

let extras =
  [
    { metric = "migrate.cell_p95_us"; unit = "us"; better = "lower"; timed = "Migrate.migrate";
      moves = "wall_norm_s on matrix (matrix_wall_s)"; flat = "serve, drift and agree" };
    { metric = "bdc.memo_hit_rate"; unit = "ratio"; better = "higher";
      timed = "bdc.describe_cache.{hit,miss} counters";
      moves = "wall_norm_s on matrix and drift"; flat = "serve_predict_p50_us" };
    { metric = "invalidate.affected_share"; unit = "ratio"; better = "lower";
      timed = "affected cells over all cells, per epoch"; moves = drift_only;
      flat = "matrix and agree" };
    { metric = "invalidate.useful_ratio"; unit = "ratio"; better = "higher";
      timed = "flips over affected cells"; moves = drift_only; flat = "matrix and agree" };
    { metric = "engine.update_cells"; unit = "count"; better = "lower";
      timed = "cells_reevaluated per update-evidence response";
      moves = "serve_update_p50_ms on serve"; flat = "serve_predict_p50_us" };
    { metric = "engine.update_useful_ratio"; unit = "ratio"; better = "higher";
      timed = "flips over cells_reevaluated"; moves = "serve_update_p50_ms on serve";
      flat = "serve_predict_p50_us" };
    { metric = "engine.update_overhead_share"; unit = "ratio"; better = "lower";
      timed = "update time not explained by cells_reevaluated x driftrun.predict_cell.p50_us";
      moves = "serve_update_p50_ms on serve"; flat = "serve_predict_p50_us" };
    { metric = "gen.late_p99_ms"; unit = "ms"; better = "lower";
      timed = "serve generator release time past its due time, queueing excluded";
      moves = health; flat = "everything" };
    { metric = "trace.overhead_share"; unit = "ratio"; better = "lower";
      timed = "traced over untraced wall time of the same work"; moves = health;
      flat = "everything" };
    { metric = "trace.unattributed_share"; unit = "ratio"; better = "lower";
      timed = "share of the traced wall time no root span covers"; moves = health;
      flat = "everything" };
  ]

let suffixes =
  [ ("calls", "count"); ("self_ms", "ms"); ("p50_us", "us"); ("alloc_mw", "Mw") ]

(* Every per-layer metric, in BENCHMARK.json order. *)
let all =
  List.concat_map
    (fun l ->
      List.map
        (fun (suffix, unit) ->
          { metric = l.layer ^ "." ^ suffix; unit; better = "lower"; timed = l.call;
            moves = l.l_moves; flat = l.l_flat })
        suffixes)
    layers
  @ extras

let to_json () =
  let module J = Feam_util.Json in
  J.render
    (J.List
       (List.map
          (fun c ->
            J.Obj
              [
                ("name", J.Str c.metric);
                ("unit", J.Str c.unit);
                ("better", J.Str c.better);
                ("timed", J.Str c.timed);
                ("moves", J.Str c.moves);
                ("flat", J.Str c.flat);
              ])
          all))
