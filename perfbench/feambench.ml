(* feambench: FEAM's end-to-end benchmark.

     feambench --workload matrix|serve|drift|agree --seed N --seconds S --trace 0|1
     feambench --claims

   One process on one thread runs one seeded workload through the
   libraries' stable public entry points (Migrate.run_all,
   Daemon.serve_lines, Driftrun.run, Harness.run_one), checks the
   output against the workload's oracle, and prints every metric by
   name with its unit and sample count.  The last line of stdout is one
   JSON object with the keys correct, attempted, failed and metrics; the
   exit code is 1 when an oracle check failed.

   --trace 0 measures the end-to-end metrics with no tracing at all.
   The JSON line carries the two gated ones, setup_s and wall_norm_s
   (the workload's time per unit of work at the memory speed Probe
   measures beside it); the rest are printed above it.
   --trace 1 runs the workload once untraced for reference, then replays
   the same inputs through the layers' public functions one documented
   step at a time with a span around each call, checks that the replay
   reproduces the untraced verdicts exactly, and prints the per-layer
   metrics (Claims says what each should move).  Spans are written to
   .perfbench/spans-<workload>.jsonl when the run ends.

   Every input derives from --seed: the evaluation's Params.seed, the
   serve schedule and mix, the drift seeds and the agree corpus seed.
   perfbench/expected.json names a default and a held-out seed and the
   verdict digests recorded for them. *)

open Feam_evalharness
module Site = Feam_sysmodel.Site
module Vfs = Feam_sysmodel.Vfs
module Env = Feam_sysmodel.Env
module Modules_tool = Feam_sysmodel.Modules_tool
module Exec = Feam_dynlinker.Exec
module Snapshot = Feam_drift.Snapshot
module Invalidate = Feam_drift.Invalidate
module Metrics = Feam_obs.Metrics
module Json = Feam_util.Json
module Engine = Feam_serve.Engine
module Protocol = Feam_serve.Protocol
module Harness = Feam_agree.Harness
module Verdict = Feam_agree.Verdict

let now = Unix.gettimeofday

type ctx = { workload : string; seed : int; seconds : float }

(* What one run hands back.  [metrics] are the JSON metrics in
   BENCHMARK.json order; [report] holds further named readings that are
   printed but not gated. *)
type result = {
  attempted : int;
  failed : int;
  metrics : Stats.reading list;
  report : Stats.reading list;
  notes : string list;
}

(* -- shared helpers ---------------------------------------------------- *)

let digest s = Digest.to_hex (Digest.string s)

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (max s.Gc.top_heap_words s.Gc.heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Call [f i] until [seconds] have passed (stopping early when the next
   call would most likely overrun by more than half its length) and at
   least [min] calls are done.  Each result comes with the Probe factor
   of the samples taken on both sides of its call. *)
let repeat ~min ~seconds f =
  let t0 = now () in
  let rec go i acc last before =
    let elapsed = now () -. t0 in
    if i >= min && elapsed +. (last /. 2.0) >= seconds then List.rev acc
    else
      let s = now () in
      let v = f i in
      let after = Probe.sample () in
      go (i + 1) ((v, Probe.factor before after) :: acc) (now () -. s) after
  in
  go 0 [] 0.0 (Probe.sample ())

let expected_file = "perfbench/expected.json"

(* The digest recorded for [workload] at [seed], when the seed is one
   of the recorded ones. *)
let expected_digest workload seed =
  let text = In_channel.with_open_text expected_file In_channel.input_all in
  match Json.parse text with
  | Error e -> failwith (expected_file ^ ": " ^ e)
  | Ok json ->
    Option.bind (Json.member workload json) (fun w ->
        Option.bind (Json.member (string_of_int seed) w) Json.to_string_opt)

let digest_note workload seed got =
  match expected_digest workload seed with
  | Some want when want = got -> Printf.sprintf "%s digest %s matches the one recorded for seed %d" workload got seed
  | Some want -> Printf.sprintf "%s digest %s differs from %s recorded for seed %d" workload got want seed
  | None -> Printf.sprintf "%s digest %s (no digest recorded for seed %d)" workload got seed

let digest_ok workload seed got =
  match expected_digest workload seed with Some want -> want = got | None -> true

let benchmarks () = Feam_suites.Npb.all @ Feam_suites.Specmpi.all

let params_of seed = { Params.default with Params.seed }

let cell_key binary_id target = binary_id ^ "->" ^ target

let memo_counters () =
  let get name = Option.value (Metrics.counter_value name) ~default:0 in
  (get "bdc.describe_cache.hit", get "bdc.describe_cache.miss")

(* Hit rate of the BDC describe memo since [memo_counters] read
   [(h0, m0)], with the number of lookups. *)
let memo_hit_rate (h0, m0) =
  let h1, m1 = memo_counters () in
  let h = h1 - h0 and m = m1 - m0 in
  ((if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)), h + m)

(* A set-up or a unit of work, timed as measured and with the Probe
   factor of the samples around it. *)
type timed = { secs : float; factor : float }

let normalized t = t.secs *. t.factor

(* [repeat]'s ((set-up, unit) seconds, factor) results as two lists. *)
let split samples =
  ( List.map (fun ((s, _), factor) -> { secs = s; factor }) samples,
    List.map (fun ((_, w), factor) -> { secs = w; factor }) samples )

(* The gated metrics, both at the probe's reference memory speed:
   setup_s is the median set-up, wall_norm_s the workload's time per
   unit of work -- [per_unit] of the normalized unit times.  Unit times
   cluster by the machine's state, and a median flips between the
   clusters, so [per_unit] is a mean (or a fit, for drift). *)
let gated ~setups ~n ~per_unit walls =
  [
    Stats.median_reading "setup_s" "s" (List.map normalized setups);
    Stats.reading ~n "wall_norm_s" "s" (per_unit (List.map normalized walls));
  ]

(* The same times as measured, the heap and the probe, printed beside
   the gated metrics. *)
let machine ~n ~per_unit ~setups walls =
  [
    Stats.median_reading "setup_measured_s" "s" (List.map (fun t -> t.secs) setups);
    Stats.reading ~n "wall_s" "s" (per_unit (List.map (fun t -> t.secs) walls));
    Stats.reading ~n:1 "peak_heap_mb" "MB" (peak_heap_mb ());
    Stats.median_reading ~scale:1e9 "probe_step_ns" "ns" !Probe.samples;
  ]

(* Collect the garbage set-up left behind, so that its major-heap work
   is not charged to the timed region that follows. *)
let settle () = Gc.full_major ()

(* -- matrix: the paper's SVI.B experiment ------------------------------- *)

let setup_reps = 5

let matrix_world params =
  let sites = Sites.build_all params in
  (sites, Testset.build params sites (benchmarks ()))

(* One cell's verdicts and both ground-truth outcomes, as one line. *)
let cell_line ~binary_id ~target ~basic ~basic_reasons ~extended ~extended_reasons
    ~staged ~before ~after =
  String.concat "|"
    [
      cell_key binary_id target;
      string_of_bool basic;
      String.concat ";" basic_reasons;
      string_of_bool extended;
      String.concat ";" extended_reasons;
      String.concat ";" staged;
      Exec.outcome_to_string before;
      Exec.outcome_to_string after;
    ]

let migration_line (m : Migrate.migration) =
  cell_line ~binary_id:m.Migrate.binary.Testset.id ~target:m.Migrate.target_name
    ~basic:m.Migrate.basic_ready ~basic_reasons:m.Migrate.basic_reasons
    ~extended:m.Migrate.extended_ready ~extended_reasons:m.Migrate.extended_reasons
    ~staged:m.Migrate.staged_copies ~before:m.Migrate.actual_before
    ~after:m.Migrate.actual_after

let lines_digest lines = digest (String.concat "\n" (Array.to_list lines))

(* Cells whose line differs from the reference; a length mismatch fails
   every cell. *)
let mismatches ~reference lines =
  if Array.length lines <> Array.length reference then
    max (Array.length lines) (Array.length reference)
  else begin
    let bad = ref 0 in
    Array.iteri (fun i l -> if l <> reference.(i) then incr bad) lines;
    !bad
  end

(* The evaluation world of the run's [k]-th matrix: world 0 is the
   seed's own.  A run covers several worlds, so one seed's stack-health
   and compile draws (and with them the cell count, 700 to 880) weigh
   less on its medians. *)
let world_seed seed k = seed + (7919 * k)

(* Every [recheck_stride]-th cell of world 0 is evaluated once more on
   its own through Migrate.migrate and must reproduce run_all's line. *)
let recheck_stride = 16

(* The paper's matrix has 803 cells at the default parameters; the unit
   of work is seconds per cell over every world of the run, times 803. *)
let paper_cells = 803.0

let run_matrix ctx =
  let attempted = ref 0 and failed = ref 0 in
  let fail n = attempted := !attempted + n; failed := !failed + n in
  let first = ref None in
  let basic_ok = ref 0 and extended_ok = ref 0 in
  let count f ms = List.length (List.filter f ms) in
  let samples =
    repeat ~min:3 ~seconds:ctx.seconds (fun k ->
        let params = params_of (world_seed ctx.seed k) in
        let t0 = now () in
        let sites, binaries = matrix_world params in
        let setup = now () -. t0 in
        settle ();
        let t1 = now () in
        let ms = try Ok (Migrate.run_all params sites binaries) with e -> Error e in
        let wall = now () -. t1 in
        (match ms with
        | Ok ms ->
          let lines = Array.of_list (List.map migration_line ms) in
          attempted := !attempted + Array.length lines;
          basic_ok := !basic_ok + count Migrate.basic_correct ms;
          extended_ok := !extended_ok + count Migrate.extended_correct ms;
          if k = 0 then begin
            first := Some (lines_digest lines);
            if not (digest_ok "matrix" ctx.seed (lines_digest lines)) then
              failed := !failed + Array.length lines;
            List.iteri
              (fun i (m : Migrate.migration) ->
                if i mod recheck_stride = 0 then begin
                  let again =
                    migration_line
                      (Migrate.migrate params m.Migrate.binary
                         (Sites.find_by_name sites m.Migrate.target_name))
                  in
                  if again <> lines.(i) then incr failed
                end)
              ms
          end
        | Error e ->
          prerr_endline ("matrix: Migrate.run_all raised " ^ Printexc.to_string e);
          fail 1);
        (setup, wall))
  in
  let setups, walls = split samples in
  let cells = !attempted in
  let score ok = float_of_int ok /. float_of_int (max 1 cells) in
  let per_unit ws = Stats.sum ws /. float_of_int (max 1 cells) *. paper_cells in
  let n = List.length walls in
  {
    attempted = !attempted;
    failed = !failed;
    metrics = gated ~setups ~n ~per_unit walls;
    report =
      machine ~n ~per_unit ~setups walls
      @ [
        Stats.median_reading "matrix_wall_s" "s" (List.map (fun t -> t.secs) walls);
        Stats.reading ~n:cells "matrix_cells_per_world" "count"
          (float_of_int cells /. float_of_int (max 1 (List.length walls)));
        Stats.reading ~n:cells "matrix_accuracy_basic" "ratio" (score !basic_ok);
        Stats.reading ~n:cells "matrix_accuracy_extended" "ratio" (score !extended_ok);
      ];
    notes =
      [
        digest_note "matrix" ctx.seed (Option.value !first ~default:"");
        Printf.sprintf "%d worlds, seeds %d + 7919k" (List.length walls) ctx.seed;
      ];
  }

(* Migrate.migrate's documented steps as separate public calls, with a
   span around each.  Phases.target_phase appears as its own steps:
   describe the binary (basic mode only -- the bundle carries the
   description in extended mode), discover the target, evaluate. *)
let migrated_dir = "/home/user/migrated"

let cleanup target =
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  Vfs.remove_tree (Site.vfs target) migrated_dir

let target_phase_steps ~span config target env ?bundle ~binary_path () =
  let open Feam_core in
  Tracer.with_span span @@ fun () ->
  let description =
    match bundle with
    | Some b -> Ok b.Bundle.binary_description
    | None ->
      Tracer.with_span "bdc.describe" (fun () -> Bdc.describe target env ~path:binary_path)
  in
  match description with
  | Error e -> Error ("target phase: " ^ e)
  | Ok description ->
    let discovery =
      Tracer.with_span "edc.discover" (fun () -> Edc.discover ~env_type:`Target target env)
    in
    Ok
      (Tracer.with_span "tec.evaluate" (fun () ->
           Tec.evaluate target env
             { Tec.config; description; binary_path = Some binary_path; bundle; discovery }))

let traced_exec ?(params = Params.default.Params.exec) ?attempts target env ~binary_path ~mode =
  Tracer.with_span "exec.run" (fun () ->
      Exec.run ~params ?attempts target env ~binary_path ~mode)

let replay_migrate (params : Params.t) (binary : Testset.binary) target =
  let open Feam_core in
  let config = Config.default in
  let base_env = Site.base_env target in
  let run env path =
    traced_exec ~params:params.Params.exec ~attempts:params.Params.attempts target env
      ~binary_path:path ~mode:(Exec.Mpi 4)
  in
  cleanup target;
  let staged_path = migrated_dir ^ "/" ^ Vfs.basename binary.Testset.home_path in
  Vfs.add ~declared_size:binary.Testset.declared_size (Site.vfs target) staged_path
    (Vfs.Elf binary.Testset.bytes);
  let basic_ready, basic_reasons, basic_slug =
    match
      target_phase_steps ~span:"phases.target_basic" config target base_env
        ~binary_path:staged_path ()
    with
    | Ok p ->
      let slug =
        match p.Predict.determinants.Predict.stack with
        | Some s -> s.Predict.functioning
        | None -> None
      in
      (Predict.is_ready p, Predict.reasons p, slug)
    | Error e -> (false, [ e ], None)
  in
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let install_for slug =
    match slug with
    | Some slug -> Site.find_stack_install target ~slug
    | None -> Migrate.user_stack_choice binary target
  in
  let before =
    match install_for basic_slug with
    | None -> Exec.Failure Exec.No_mpi_stack
    | Some install -> run (Modules_tool.load_stack base_env install) staged_path
  in
  let bundle =
    Tracer.with_span "phases.source" (fun () ->
        Phases.source_phase config binary.Testset.home
          (Modules_tool.load_stack (Site.base_env binary.Testset.home) binary.Testset.install)
          ~binary_path:binary.Testset.home_path)
  in
  let extended =
    match bundle with
    | Error e -> Error e
    | Ok bundle ->
      target_phase_steps ~span:"phases.target_extended" config target base_env ~bundle
        ~binary_path:staged_path ()
  in
  let extended_ready, extended_reasons, staged, chosen_slug =
    match extended with
    | Ok p -> (
      match p.Predict.verdict with
      | Predict.Ready plan ->
        (true, [], List.map fst plan.Predict.staged_copies, plan.Predict.chosen_stack_slug)
      | Predict.Not_ready reasons ->
        let staged =
          match p.Predict.determinants.Predict.libs with
          | Some l -> l.Predict.resolved_by_copies
          | None -> []
        in
        (false, reasons, staged, None))
    | Error e -> (false, [ e ], [], None)
  in
  let after =
    match install_for chosen_slug with
    | None -> Exec.Failure Exec.No_mpi_stack
    | Some install ->
      let env = Modules_tool.load_stack base_env install in
      let env =
        if staged = [] then env
        else Env.prepend_path env "LD_LIBRARY_PATH" config.Config.staging_dir
      in
      run env staged_path
  in
  cleanup target;
  cell_line ~binary_id:binary.Testset.id ~target:(Site.name target) ~basic:basic_ready
    ~basic_reasons ~extended:extended_ready ~extended_reasons ~staged ~before ~after

let replay_matrix params sites binaries =
  Feam_core.Bdc.set_describe_memo ();
  Fun.protect ~finally:Feam_core.Bdc.clear_describe_memo @@ fun () ->
  List.concat_map
    (fun (binary : Testset.binary) ->
      sites
      |> List.filter (fun target ->
             Site.name target <> Site.name binary.Testset.home
             && Migrate.has_matching_impl binary target)
      |> List.map (fun target ->
             Tracer.with_span
               ~ctx:(cell_key binary.Testset.id (Site.name target))
               "migrate.cell"
               (fun () -> replay_migrate params binary target)))
    binaries

(* Per-layer values a traced run computes beside the span table. *)
type traced = {
  t_attempted : int;
  t_failed : int;
  untraced_s : float;
  traced_s : float;  (* the same work as [untraced_s], traced *)
  spanned_s : float;  (* wall time of every region that records spans *)
  extra : (string * (float * int)) list;  (* value, sample count *)
  t_notes : string list;
}

let traced_matrix ctx =
  let params = params_of ctx.seed in
  let t0 = now () in
  let world = ref None in
  for _ = 1 to setup_reps do
    let sites = Tracer.with_span "sites.build" (fun () -> Sites.build_all params) in
    let binaries =
      Tracer.with_span "testset.build" (fun () -> Testset.build params sites (benchmarks ()))
    in
    world := Some (sites, binaries)
  done;
  let setup_s = now () -. t0 in
  let sites, binaries = Option.get !world in
  let u0 = now () in
  let reference = Array.of_list (List.map migration_line (Migrate.run_all params sites binaries)) in
  let untraced_s = now () -. u0 in
  let memo0 = memo_counters () in
  let r0 = now () in
  let lines = Array.of_list (replay_matrix params sites binaries) in
  let replay_s = now () -. r0 in
  let bad = mismatches ~reference lines in
  let cell_durations =
    Option.fold ~none:[] ~some:(fun l -> l.Tracer.durations)
      (Hashtbl.find_opt (Tracer.layers ()) "migrate.cell")
  in
  {
    t_attempted = Array.length reference;
    t_failed = bad;
    untraced_s;
    traced_s = replay_s;
    spanned_s = setup_s +. replay_s;
    extra =
      [
        ("bdc.memo_hit_rate", memo_hit_rate memo0);
        ( "migrate.cell_p95_us",
          ( Option.fold ~none:0.0 ~some:(fun v -> v *. 1e6) (Stats.tail cell_durations 0.95),
            List.length cell_durations ) );
      ];
    t_notes =
      [
        Printf.sprintf "replayed %d cells, %d differ from Migrate.run_all" (Array.length lines) bad;
        Printf.sprintf "setup (traced, %d reps) took %.3f s" setup_reps setup_s;
      ];
  }

(* -- drift: Driftrun.run over the full matrix ---------------------------- *)

(* Epochs in the run's one Driftrun.run call: about 0.7 s of epochs per
   second of the run on the seed tree, since the epoch-0 baseline and
   the closing cross-check take the rest.  Epoch costs differ a lot with
   the drawn perturbation (0 to ~350 reached cells), so the run takes
   one long sequence rather than several short ones. *)
let drift_epochs seconds = max 3 (int_of_float (0.7 *. seconds))

(* An epoch costs a fixed part (rebuild the world, capture its evidence,
   diff it) plus a part per reached cell, and the draw decides the
   reach: 0 to ~370 cells, so 0.4 to 1.8 s on the seed tree.  The mean
   epoch of a run therefore says more about its seed than about the
   code.  The unit of work is instead the least-squares line through the run's
   (reached cells, epoch seconds) points, read at [reference_reach]
   cells -- a quarter of the matrix, near the typical reach. *)
let reference_reach = 200.0

let epoch_at_reference points =
  let n = float_of_int (List.length points) in
  let mx = Stats.sum (List.map fst points) /. n and my = Stats.sum (List.map snd points) /. n in
  let sxx = Stats.sum (List.map (fun (x, _) -> (x -. mx) ** 2.0) points) in
  let sxy = Stats.sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) points) in
  if sxx = 0.0 then my else my +. (sxy /. sxx *. (reference_reach -. mx))

let run_drift ctx =
  let epochs = drift_epochs ctx.seconds in
  (* (end of an epoch, start of the next): the probe runs in between.
     Every epoch takes the run's factor, not its neighbours' samples: the
     fit below amplifies per-epoch noise. *)
  let marks = ref [] in
  let progress _ =
    let stop = now () in
    ignore (Probe.sample ());
    marks := (stop, now ()) :: !marks
  in
  let t0 = now () in
  let r =
    try Ok (Driftrun.run ~progress ~seed:ctx.seed ~epochs ()) with e -> Error (Printexc.to_string e)
  in
  let factor = Probe.run_factor () in
  let _, gaps =
    List.fold_left
      (fun (start, acc) (stop, next) -> (next, { secs = stop -. start; factor } :: acc))
      (t0, []) (List.rev !marks)
  in
  let setup, gaps =
    match List.rev gaps with baseline :: epochs -> ([ baseline ], epochs) | [] -> ([], [])
  in
  let failed, cells, share, reaches =
    match r with
    | Ok r ->
      ( (match r.Driftrun.dr_crosscheck with
        | Ok () -> 0
        | Error e ->
          prerr_endline ("drift: " ^ e);
          epochs),
        r.Driftrun.dr_cells_total,
        float_of_int r.Driftrun.dr_cells_reevaluated /. float_of_int (max 1 r.Driftrun.dr_cells_full),
        List.filter_map
          (fun (er : Driftrun.epoch_result) ->
            Option.map
              (fun p -> float_of_int (List.length p.Invalidate.pl_affected))
              er.Driftrun.er_plan)
          r.Driftrun.dr_epochs )
    | Error e ->
      prerr_endline ("drift: Driftrun.run raised " ^ e);
      (epochs, 0, 0.0, [])
  in
  let fits = reaches <> [] && List.length reaches = List.length gaps in
  let failed = if fits then failed else epochs in
  let per_unit ws = if fits then epoch_at_reference (List.combine reaches ws) else 0.0 in
  let n = List.length gaps in
  {
    attempted = epochs;
    failed;
    metrics = gated ~setups:setup ~n ~per_unit gaps;
    report =
      machine ~n ~per_unit ~setups:setup gaps
      @ [
        Stats.median_reading "drift_epoch_p50_s" "s" (List.map (fun t -> t.secs) gaps);
        Stats.reading ~n:1 "drift_cells" "count" (float_of_int cells);
        Stats.reading ~n:epochs "drift_reevaluated_share" "ratio" share;
      ];
    notes = [ "setup_s is the epoch-0 baseline" ];
  }

type epoch_verdicts = { label : string; doc : string; affected : int; flips : int }

(* Driftrun.run's private helpers, restated: the toggle semantics of the
   perturbation set and how a perturbation lands on a world.  The verdict
   comparison below fails if they drift from the originals. *)
let toggle active p =
  if List.mem p active then
    (List.filter (fun q -> q <> p) active, "undo " ^ Driftrun.perturbation_label p)
  else (active @ [ p ], Driftrun.perturbation_label p)

let apply_perturbation sites (p : Driftrun.perturbation) =
  let site = Sites.find_by_name sites p.Driftrun.pe_site in
  match p.Driftrun.pe_what with
  | Scengen.Stale_ld_cache -> Site.set_ld_cache_current site false
  | Scengen.Remove_lib name ->
    let vfs = Site.vfs site in
    List.iter (Vfs.remove vfs) (Vfs.find_by_basename vfs (fun b -> b = name))
  | _ -> ()

let traced_predict_cell (b : Testset.binary) target =
  Tracer.with_span
    ~ctx:(cell_key b.Testset.id (Site.name target))
    "driftrun.predict_cell"
    (fun () -> Driftrun.predict_cell b target)

(* The drift sequence through the building blocks driftrun.mli exports:
   draw, build_world's steps, snapshot_of_world, Invalidate.affected,
   predict_cell, Invalidate.merge. *)
let replay_drift ~seed ~epochs =
  let params = params_of seed in
  let benchmarks = benchmarks () in
  Feam_core.Bdc.set_describe_memo ();
  Fun.protect ~finally:Feam_core.Bdc.clear_describe_memo @@ fun () ->
  let build ~ctx active =
    Tracer.with_span ~ctx "driftrun.build_world" @@ fun () ->
    let sites = Tracer.with_span "sites.build" (fun () -> Sites.build_specs params Sites.specs) in
    let binaries = Tracer.with_span "testset.build" (fun () -> Testset.build params sites benchmarks) in
    List.iter (apply_perturbation sites) active;
    (sites, binaries)
  in
  let snapshot ~ctx ~epoch ~label sites binaries ~cells =
    Tracer.with_span ~ctx "driftrun.snapshot" (fun () ->
        Driftrun.snapshot_of_world ~epoch ~seed ~label sites binaries ~cells)
  in
  let sites0, binaries0 = build ~ctx:"epoch/0" [] in
  let candidates = Driftrun.removal_candidates sites0 in
  let site_names = List.map Site.name sites0 in
  let cells0 =
    List.map (fun (b, t) -> traced_predict_cell b t) (Driftrun.all_cells sites0 binaries0)
  in
  let base = snapshot ~ctx:"epoch/0" ~epoch:0 ~label:"" sites0 binaries0 ~cells:cells0 in
  let rec go k active (prev : Snapshot.t) acc =
    if k > epochs then List.rev acc
    else begin
      let ctx = Printf.sprintf "epoch/%d" k in
      let p = Driftrun.draw ~seed ~epoch:k ~site_names ~candidates in
      let active, label = toggle active p in
      let sites, binaries = build ~ctx active in
      let candidate =
        snapshot ~ctx ~epoch:k ~label sites binaries ~cells:prev.Snapshot.cells
      in
      let plan =
        Tracer.with_span ~ctx "invalidate.affected" (fun () -> Invalidate.affected prev candidate)
      in
      let reevaluated =
        List.map
          (fun (c : Invalidate.cell_id) ->
            let binary =
              List.find
                (fun (b : Testset.binary) -> b.Testset.id = c.Invalidate.ci_binary)
                binaries
            in
            traced_predict_cell binary (Sites.find_by_name sites c.Invalidate.ci_target))
          plan.Invalidate.pl_affected
      in
      let cells =
        Tracer.with_span ~ctx "invalidate.merge" (fun () ->
            Invalidate.merge ~base:prev.Snapshot.cells ~reevaluated)
      in
      let flips = Invalidate.flips ~before:prev.Snapshot.cells ~after:cells in
      let next = Snapshot.normalize { candidate with Snapshot.cells } in
      let v =
        {
          label;
          doc = Driftrun.cells_doc ~epoch:k ~seed next.Snapshot.cells;
          affected = List.length plan.Invalidate.pl_affected;
          flips = List.length flips;
        }
      in
      go (k + 1) active next (v :: acc)
    end
  in
  (List.length cells0, go 1 [] base [])

let traced_drift_epochs = 4

let traced_drift ctx =
  let seed = ctx.seed in
  let marks = ref [] in
  let t0 = now () in
  let r =
    Driftrun.run ~progress:(fun _ -> marks := now () :: !marks) ~seed
      ~epochs:traced_drift_epochs ()
  in
  let untraced_s = match !marks with last :: _ -> last -. t0 | [] -> now () -. t0 in
  let reference =
    List.filter_map
      (fun (er : Driftrun.epoch_result) ->
        let epoch = er.Driftrun.er_snapshot.Snapshot.epoch in
        if epoch = 0 then None
        else
          Some
            ( er.Driftrun.er_label,
              Driftrun.cells_doc ~epoch ~seed er.Driftrun.er_snapshot.Snapshot.cells ))
      r.Driftrun.dr_epochs
  in
  let memo0 = memo_counters () in
  let r0 = now () in
  let cells_total, replayed = replay_drift ~seed ~epochs:traced_drift_epochs in
  let traced_s = now () -. r0 in
  let bad =
    if List.length reference <> List.length replayed then traced_drift_epochs
    else
      List.length
        (List.filter
           (fun ((label, doc), v) -> label <> v.label || doc <> v.doc)
           (List.combine reference replayed))
  in
  let bad = if r.Driftrun.dr_crosscheck = Ok () then bad else traced_drift_epochs in
  let affected = List.fold_left (fun acc v -> acc + v.affected) 0 replayed in
  let flips = List.fold_left (fun acc v -> acc + v.flips) 0 replayed in
  {
      t_attempted = traced_drift_epochs;
      t_failed = bad;
      untraced_s;
      traced_s;
      spanned_s = traced_s;
      extra =
        [
          ("bdc.memo_hit_rate", memo_hit_rate memo0);
          ( "invalidate.affected_share",
            ( float_of_int affected /. float_of_int (max 1 (cells_total * traced_drift_epochs)),
              cells_total * traced_drift_epochs ) );
          ("invalidate.useful_ratio", (float_of_int flips /. float_of_int (max 1 affected), affected));
        ];
      t_notes =
        [
          Printf.sprintf "replayed %d epochs of drift seed %d, %d differ from Driftrun.run"
            (List.length replayed) seed bad;
        ];
    }

(* -- agree: the predictor-agreement corpus ------------------------------- *)

(* Scenarios per pass.  Scenario costs differ a lot (a cross-ISA target
   fails fast; a deep closure runs every predictor in full), so each
   pass builds fresh scenarios -- pass p takes indices
   [p * agree_pass_size, (p + 1) * agree_pass_size) -- and the run's
   medians rest on thousands of scenarios, not one small corpus. *)
let agree_pass_size = 200

let build_corpus ~seed ~pass =
  List.init agree_pass_size (fun i ->
      Scengen.build ~seed ~index:((pass * agree_pass_size) + i) ())

(* One pass as Harness.run_corpus makes it, minus building: a cold fact
   base and a fresh describe memo per pass. *)
let agree_pass ~run_one corpus =
  Feam_analysis.Factbase.reset ();
  Feam_core.Bdc.set_describe_memo ();
  Fun.protect ~finally:Feam_core.Bdc.clear_describe_memo @@ fun () ->
  List.map
    (fun sc -> try Ok (run_one sc) with e -> Error (Scengen.id sc ^ ": " ^ Printexc.to_string e))
    corpus

let report_digest runs =
  digest (Harness.render_report (List.filter_map Result.to_option runs))

let pass_errors runs =
  let errors = List.filter_map (function Error e -> Some e | Ok _ -> None) runs in
  List.iter (fun e -> prerr_endline ("agree: " ^ e)) errors;
  List.length errors

(* Setup is building a pass's scenarios, wall one pass of run_one over
   them.  Pass 0's report digest must match the recorded one, and pass 0
   rebuilt and rerun at the end must reproduce it byte for byte. *)
let run_agree ctx =
  let attempted = ref 0 and failed = ref 0 in
  let first = ref "" in
  let samples =
    repeat ~min:3 ~seconds:ctx.seconds (fun pass ->
        let t0 = now () in
        let corpus = build_corpus ~seed:ctx.seed ~pass in
        let setup = now () -. t0 in
        settle ();
        let t1 = now () in
        let runs = agree_pass ~run_one:Harness.run_one corpus in
        let wall = now () -. t1 in
        attempted := !attempted + agree_pass_size;
        failed := !failed + pass_errors runs;
        if pass = 0 then begin
          first := report_digest runs;
          if not (digest_ok "agree" ctx.seed !first) then
            failed := !failed + agree_pass_size
        end;
        (setup, wall))
  in
  let again = agree_pass ~run_one:Harness.run_one (build_corpus ~seed:ctx.seed ~pass:0) in
  attempted := !attempted + agree_pass_size;
  failed := !failed + pass_errors again;
  if report_digest again <> !first then failed := !failed + agree_pass_size;
  let setups, walls = split samples in
  let n = List.length walls in
  {
    attempted = !attempted;
    failed = !failed;
    metrics = gated ~setups ~n ~per_unit:Stats.mean walls;
    report =
      machine ~n ~per_unit:Stats.mean ~setups walls
      @ [ Stats.median_reading "agree_wall_s" "s" (List.map (fun t -> t.secs) walls) ];
    notes =
      [
        digest_note "agree" ctx.seed !first;
        Printf.sprintf "%d passes of %d fresh scenarios" (List.length walls) agree_pass_size;
      ];
  }

(* Harness.run_one's documented steps as separate public calls. *)
let replay_run_one (sc : Scengen.t) =
  let open Feam_core in
  Tracer.with_span ~ctx:(Scengen.id sc) "harness.run_one" @@ fun () ->
  let home_env =
    match sc.Scengen.sc_home_install with
    | Some install -> Modules_tool.load_stack (Site.base_env sc.Scengen.sc_home) install
    | None -> Site.base_env sc.Scengen.sc_home
  in
  let bundle =
    match
      Tracer.with_span "phases.source" (fun () ->
          Phases.source_phase Config.default sc.Scengen.sc_home home_env
            ~binary_path:sc.Scengen.sc_binary_path)
    with
    | Ok b -> Scengen.bundle_filter sc b
    | Error e -> failwith (Printf.sprintf "agree %s: source phase failed: %s" (Scengen.id sc) e)
  in
  let program = sc.Scengen.sc_program in
  let staged = migrated_dir ^ "/" ^ program.Feam_toolchain.Compile.prog_name in
  Vfs.add
    ~declared_size:(Feam_toolchain.Compile.declared_size program)
    (Site.vfs sc.Scengen.sc_target) staged (Vfs.Elf sc.Scengen.sc_binary_bytes);
  let target = sc.Scengen.sc_target in
  let env =
    List.fold_left
      (fun e dir -> Env.prepend_path e "LD_LIBRARY_PATH" dir)
      (match sc.Scengen.sc_target_install with
      | Some install -> Modules_tool.load_stack (Site.base_env target) install
      | None -> Site.base_env target)
      sc.Scengen.sc_extra_ld_dirs
  in
  let discovery =
    Tracer.with_span "edc.discover" (fun () -> Edc.discover ~env_type:`Target target env)
  in
  let tec =
    Tracer.with_span "tec.evaluate" (fun () ->
        Tec.evaluate target env
          {
            Tec.config = { Config.default with Config.binary_path = Some staged };
            description = bundle.Bundle.binary_description;
            binary_path = Some staged;
            bundle = None;
            discovery;
          })
  in
  let findings =
    Tracer.with_span "analysis.engine" (fun () ->
        Feam_analysis.Engine.run
          (Feam_analysis.Context.of_bundle
             ~target:(Feam_analysis.Context.target_of_site target) bundle))
  in
  let sym =
    match
      Tracer.with_span "factbase.spec_of_bytes" (fun () ->
          Feam_analysis.Factbase.spec_of_bytes sc.Scengen.sc_binary_bytes)
    with
    | Error _ -> Feam_symcheck.Symcheck.run []
    | Ok spec ->
      let resolved =
        Tracer.with_span "resolve.run" (fun () -> Feam_dynlinker.Resolve.run target env spec)
      in
      Tracer.with_span "symcheck.of_resolve" (fun () -> Feam_symcheck.Symcheck.of_resolve resolved)
  in
  let mode =
    if program.Feam_toolchain.Compile.uses_mpi then Exec.Mpi 4 else Exec.Serial
  in
  let outcome =
    traced_exec ~params:Feam_sysmodel.Fault_model.none target env ~binary_path:staged ~mode
  in
  let r_failure = match outcome with Exec.Success -> None | Exec.Failure f -> Some f in
  let r_tec = Verdict.of_predict tec in
  let r_lint = Verdict.of_findings findings in
  let r_sym = Verdict.of_symcheck sym in
  let r_oracle = Verdict.of_outcome outcome in
  let r_unsound =
    match r_failure with
    | None -> []
    | Some f ->
      List.filter
        (fun (p, v) -> Verdict.strictly_ready v && Verdict.claims p f)
        [ (Verdict.Tec, r_tec); (Verdict.Lint, r_lint); (Verdict.Symcheck, r_sym) ]
      |> List.map fst
  in
  {
    Harness.r_scenario = sc;
    r_tec;
    r_lint;
    r_sym;
    r_oracle;
    r_failure;
    r_unsound;
    r_findings = findings;
  }

let verdict_line (r : Harness.run) =
  let v p =
    let t = Harness.verdict_of r p in
    Verdict.level_to_string t.Verdict.v_level
    ^ "["
    ^ String.concat ","
        (List.map
           (fun a -> a.Verdict.at_source ^ ":" ^ a.Verdict.at_detail)
           t.Verdict.v_attribution)
    ^ "]"
  in
  String.concat "|"
    (Scengen.id r.Harness.r_scenario
     :: List.map v Verdict.predictors
    @ List.map Verdict.predictor_name r.Harness.r_unsound)

let traced_agree ctx =
  let t0 = now () in
  let corpus =
    List.init agree_pass_size (fun index ->
        Tracer.with_span
          ~ctx:(Printf.sprintf "%d/%d" ctx.seed index)
          "scengen.build"
          (fun () -> Scengen.build ~seed:ctx.seed ~index ()))
  in
  let setup_s = now () -. t0 in
  let u0 = now () in
  let reference = agree_pass ~run_one:Harness.run_one corpus in
  let untraced_s = now () -. u0 in
  let memo0 = memo_counters () in
  let r0 = now () in
  let replayed = agree_pass ~run_one:replay_run_one corpus in
  let traced_s = now () -. r0 in
  let line = function Ok r -> verdict_line r | Error e -> "error: " ^ e in
  let bad =
    List.length
      (List.filter (fun (a, b) -> line a <> line b) (List.combine reference replayed))
  in
  let same_report = report_digest reference = report_digest replayed in
  {
      t_attempted = agree_pass_size;
      t_failed = (if same_report then bad else max bad 1);
      untraced_s;
      traced_s;
      spanned_s = setup_s +. traced_s;
      extra = [ ("bdc.memo_hit_rate", memo_hit_rate memo0) ];
      t_notes =
        [
          Printf.sprintf "replayed %d scenarios, %d differ from Harness.run_one; report %s"
            (List.length replayed) bad
            (if same_report then "identical" else "differs");
        ];
    }

(* -- serve: the resident engine under an open-loop schedule ------------- *)

(* Requests per second.  At this rate the engine is about a third busy
   on the seed tree, nearly all of it in update-evidence, and a 20 s run
   has over 100 writes, enough for serve_update_p90_ms.  At half busy
   (~800/s) about half the reads arrive while a write is running, and
   the predict median flips between a table lookup and a write's
   queueing delay from run to run. *)
let serve_rate = 700.0

let batch_share = 0.1
let batch_size = 8

type kind = Predict | Batch | Update | Check

type schedule = { lines : string array; kinds : kind array }

(* The seeded mix: in every block of 100 requests exactly one
   update-evidence at a drawn position, about a tenth predict-batch of
   [batch_size] queries, the rest predict.  Writes take the sites in
   turn and toggle the site's ld cache stale/fresh, so every write is
   accepted; sites left stale are freshened at the end, and a
   crosscheck closes the run. *)
let make_schedule ~seed ~seconds ~cells ~sites =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let blocks = max 2 (int_of_float (serve_rate *. seconds) / 100) in
  let cells = Array.of_list cells in
  let sites = Array.of_list sites in
  let stale = Hashtbl.create 4 in
  let query () =
    let b, t = cells.(Random.State.int rng (Array.length cells)) in
    Json.Obj [ ("binary", Json.Str b); ("target", Json.Str t) ]
  in
  let request fields = Json.render (Json.Obj fields) in
  let update site action =
    ( Update,
      request
        [ ("verb", Json.Str "update-evidence"); ("site", Json.Str site); ("action", Json.Str action) ] )
  in
  let out = ref [] in
  for block = 0 to blocks - 1 do
    let write_at = Random.State.int rng 100 in
    for i = 0 to 99 do
      let r =
        if i = write_at then begin
          let site = sites.(block mod Array.length sites) in
          let is_stale = Hashtbl.mem stale site in
          if is_stale then Hashtbl.remove stale site else Hashtbl.replace stale site ();
          update site (if is_stale then "fresh-ld-cache" else "stale-ld-cache")
        end
        else if Random.State.float rng 1.0 < batch_share then
          ( Batch,
            request
              [
                ("verb", Json.Str "predict-batch");
                ("queries", Json.List (List.init batch_size (fun _ -> query ())));
              ] )
        else
          match query () with
          | Json.Obj fields -> (Predict, request (("verb", Json.Str "predict") :: fields))
          | _ -> assert false
      in
      out := r :: !out
    done
  done;
  Array.iter
    (fun site -> if Hashtbl.mem stale site then out := update site "fresh-ld-cache" :: !out)
    sites;
  out := (Check, request [ ("verb", Json.Str "crosscheck") ]) :: !out;
  let all = Array.of_list (List.rev !out) in
  { lines = Array.map snd all; kinds = Array.map fst all }

let rec wait_until t =
  let d = t -. now () in
  if d > 0.002 then begin
    Unix.sleepf (d -. 0.001);
    wait_until t
  end
  else if d > 0.0 then wait_until t

type served = {
  due : float array;
  released : float array;
  finished : float array;
  responses : string array;
}

(* Feed the schedule through [serve]: request i is released no earlier
   than its due time; [serve ~next ~write] must call [write] once per
   line [next] hands out. *)
let drive sched serve =
  let n = Array.length sched.lines in
  let start = now () +. 0.01 in
  let due = Array.init n (fun i -> start +. (float_of_int i /. serve_rate)) in
  let released = Array.make n 0.0 and finished = Array.make n 0.0 in
  let responses = Array.make n "" in
  let i = ref 0 and cur = ref 0 in
  let next () =
    if !i >= n then None
    else begin
      wait_until due.(!i);
      cur := !i;
      released.(!i) <- now ();
      incr i;
      Some sched.lines.(!cur)
    end
  in
  let write response =
    finished.(!cur) <- now ();
    responses.(!cur) <- String.trim response
  in
  serve ~next ~write;
  { due; released; finished; responses }

let is_ok response = String.starts_with ~prefix:{|{"ok":true|} response

let field response name =
  match Json.parse response with Ok j -> Json.member name j | Error _ -> None

(* The oracle: every request answers ok:true, every write is accepted
   (it changed evidence), and the closing crosscheck matches. *)
let check_response kind response =
  is_ok response
  &&
  match kind with
  | Predict | Batch -> true
  | Update -> (
    match Option.bind (field response "changed_atoms") Json.to_int_opt with
    | Some n -> n > 0
    | None -> false)
  | Check -> field response "matches" = Some (Json.Bool true)

let serve_cells engine =
  let snap = Engine.snapshot engine in
  ( List.map
      (fun (c : Snapshot.cell) -> (c.Snapshot.cl_binary, c.Snapshot.cl_target))
      snap.Snapshot.cells,
    List.sort_uniq compare
      (List.map (fun (c : Snapshot.cell) -> c.Snapshot.cl_target) snap.Snapshot.cells) )

(* One untraced pass of the schedule through Daemon.serve_lines. *)
let serve_untraced engine sched =
  drive sched (fun ~next ~write ->
      let outcome = Feam_serve.Daemon.serve_lines engine ~next ~write in
      if outcome.Feam_serve.Daemon.parse_errors <> 0 then
        prerr_endline "serve: the schedule produced parse errors")

let busy_s s kinds =
  let t = ref 0.0 in
  Array.iteri
    (fun i k -> if k <> Check then t := !t +. (s.finished.(i) -. s.released.(i)))
    kinds;
  !t

let samples kinds want f =
  let acc = ref [] in
  Array.iteri (fun i k -> if k = want then acc := f i :: !acc) kinds;
  !acc

let serve_failures sched s =
  let bad = ref 0 in
  Array.iteri
    (fun i k -> if not (check_response k s.responses.(i)) then incr bad)
    sched.kinds;
  !bad

(* The run is split into segments, each a fresh engine on its own world
   (seeds as for the matrix) with its own schedule: which binaries
   compile and how many cells an update reaches depend on the world, so
   one world per run would make a run's cost mostly its seed's. *)
let serve_segments = 10

(* Share of the run given to the open loops; the rest is the engines'
   set-up and the probes. *)
let serve_share = 0.9

let run_serve ctx =
  let seconds = ctx.seconds *. serve_share /. float_of_int serve_segments in
  let segment k =
    let seed = world_seed ctx.seed k in
    let p = Probe.sample () in
    let t0 = now () in
    let engine = Engine.create ~seed () in
    let setup = { secs = now () -. t0; factor = Probe.factor p p } in
    let cells, sites = serve_cells engine in
    let sched = make_schedule ~seed ~seconds ~cells ~sites in
    settle ();
    (* The schedule leaves no gap long enough for a probe, so the probes
       run on both sides of it. *)
    let before = Probe.sample () in
    let s = serve_untraced engine sched in
    let factor = Probe.factor before (Probe.sample ()) in
    (* close drops the describe memo that the next create turns back on *)
    Engine.close engine;
    (setup, sched, s, { secs = busy_s s sched.kinds; factor })
  in
  let runs = List.init serve_segments segment in
  let pool f = List.concat_map (fun (_, sched, s, _) -> f sched s) runs in
  let total f = List.fold_left (fun acc (_, sched, s, _) -> acc + f sched s) 0 runs in
  let latency want sched s = samples sched.kinds want (fun i -> s.finished.(i) -. s.due.(i)) in
  let predict = pool (latency Predict) and updates = pool (latency Update) in
  let n = total (fun sched _ -> Array.length sched.lines) in
  (* every segment's closing crosscheck is not a scheduled request *)
  let scheduled = n - serve_segments in
  let setups = List.map (fun (t, _, _, _) -> t) runs in
  let busy = List.map (fun (_, _, _, b) -> b) runs in
  let span = Stats.sum (pool (fun _ s -> [ s.due.(Array.length s.due - 1) -. s.due.(0) ])) in
  let per_unit ws = Stats.sum ws *. 1000.0 /. float_of_int scheduled in
  {
    attempted = n;
    failed = total serve_failures;
    metrics = gated ~setups ~n:scheduled ~per_unit busy;
    report =
      machine ~n:scheduled ~per_unit ~setups busy
      @ [
        Stats.median_reading ~scale:1e6 "serve_predict_p50_us" "us" predict;
        Stats.tail_reading ~scale:1e6 "serve_predict_p99_us" "us" 0.99 predict;
        Stats.median_reading ~scale:1e3 "serve_update_p50_ms" "ms" updates;
        Stats.tail_reading ~scale:1e3 "serve_update_p90_ms" "ms" 0.90 updates;
        Stats.reading ~n:scheduled "serve_busy_share" "ratio"
          (Stats.sum (List.map (fun t -> t.secs) busy) /. span);
      ];
    notes =
      [
        Printf.sprintf "%d requests at %.0f/s over %d worlds; a unit of work is 1000 requests \
                        (engine busy seconds)"
          scheduled serve_rate serve_segments;
      ];
  }

let engine_span = function
  | Protocol.Predict _ -> "engine.predict"
  | Protocol.Predict_batch _ -> "engine.predict_batch"
  | Protocol.Update_evidence _ -> "engine.update"
  | Protocol.Crosscheck -> "engine.crosscheck"
  | _ -> "engine.other"

(* Daemon.serve_lines' documented steps -- parse, then Engine.handle --
   with a span around each. *)
let serve_traced engine sched =
  drive sched (fun ~next ~write ->
      let id = ref 0 in
      let rec loop () =
        match next () with
        | None -> ()
        | Some line ->
          let ctx = Printf.sprintf "req/%d" !id in
          incr id;
          let response =
            match Tracer.with_span ~ctx "protocol.parse" (fun () -> Protocol.parse line) with
            | Error e -> Protocol.error_response e
            | Ok req -> (
              try Tracer.with_span ~ctx (engine_span req) (fun () -> Engine.handle engine req)
              with exn ->
                Json.render
                  (Json.Obj
                     [
                       ("ok", Json.Bool false);
                       ("error", Json.Str "internal");
                       ("detail", Json.Str (Printexc.to_string exn));
                     ]))
          in
          write response;
          loop ()
      in
      loop ())

(* The reference and the traced replay each get half the run. *)
let traced_serve ctx =
  let e1 = Engine.create ~seed:ctx.seed () in
  let cells, sites = serve_cells e1 in
  let sched = make_schedule ~seed:ctx.seed ~seconds:(ctx.seconds /. 2.0) ~cells ~sites in
  let reference = serve_untraced e1 sched in
  Engine.close e1;
  let e2 = Engine.create ~seed:ctx.seed () in
  let memo0 = memo_counters () in
  let replay = serve_traced e2 sched in
  let memo_rate = memo_hit_rate memo0 in
  (* driftrun.predict_cell on the serve world, memo warm as the engine
     keeps it, prices a re-evaluated cell for the overhead share. *)
  let sites_w, binaries_w =
    Driftrun.build_world (params_of ctx.seed) (Driftrun.small_specs ())
      (Driftrun.small_benchmarks ()) []
  in
  let c0 = now () in
  for _ = 1 to 3 do
    List.iter (fun (b, t) -> ignore (traced_predict_cell b t)) (Driftrun.all_cells sites_w binaries_w)
  done;
  let calibration_s = now () -. c0 in
  Engine.close e2;
  let n = Array.length sched.lines in
  let bad = ref 0 in
  Array.iteri (fun i r -> if r <> replay.responses.(i) then incr bad) reference.responses;
  let updates = List.filter (fun i -> sched.kinds.(i) = Update) (List.init n Fun.id) in
  let update_field name =
    List.map
      (fun i ->
        match field replay.responses.(i) name with
        | Some (Json.Int v) -> float_of_int v
        | Some (Json.List l) -> float_of_int (List.length l)
        | _ -> 0.0)
      updates
  in
  let nu = List.length updates in
  let cells_re = Stats.sum (update_field "cells_reevaluated") in
  let flips = Stats.sum (update_field "flips") in
  let tbl = Tracer.layers () in
  let layer_s name = Option.fold ~none:0.0 ~some:(fun l -> Stats.sum l.Tracer.durations) (Hashtbl.find_opt tbl name) in
  let cell_p50 =
    Option.fold ~none:0.0 ~some:(fun l -> Stats.median l.Tracer.durations)
      (Hashtbl.find_opt tbl "driftrun.predict_cell")
  in
  let update_s = layer_s "engine.update" in
  let late =
    List.init n (fun i ->
        let ready = if i = 0 then reference.due.(0) else Float.max reference.due.(i) reference.finished.(i - 1) in
        Float.max 0.0 (reference.released.(i) -. ready))
  in
  let traced_s = busy_s replay sched.kinds in
  {
      t_attempted = n;
      t_failed = !bad + serve_failures sched reference;
      untraced_s = busy_s reference sched.kinds;
      traced_s;
      spanned_s = traced_s +. calibration_s;
      extra =
        [
          ("bdc.memo_hit_rate", memo_rate);
          ("engine.update_cells", (cells_re /. float_of_int (max 1 nu), nu));
          ("engine.update_useful_ratio", (flips /. Float.max 1.0 cells_re, int_of_float cells_re));
          ( "engine.update_overhead_share",
            ((if update_s > 0.0 then 1.0 -. (cells_re *. cell_p50 /. update_s) else 0.0), nu) );
          ( "gen.late_p99_ms",
            (Option.fold ~none:0.0 ~some:(fun v -> v *. 1e3) (Stats.tail late 0.99), List.length late) );
        ];
      t_notes =
        [ Printf.sprintf "replayed %d requests, %d responses differ from Daemon.serve_lines" n !bad ];
    }

(* -- output -------------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~attempted ~failed readings =
  let metric (r : Stats.reading) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
      (Json.render (Json.Str r.Stats.name))
      (number (Option.value r.Stats.value ~default:0.0))
      (Json.render (Json.Str r.Stats.unit))
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (failed = 0) attempted failed
    (String.concat "," (List.map metric readings))

let finish ~attempted ~failed readings =
  print_endline (json_line ~attempted ~failed readings);
  exit (if failed = 0 then 0 else 1)

let run_untraced ctx =
  let r =
    match ctx.workload with
    | "matrix" -> run_matrix ctx
    | "serve" -> run_serve ctx
    | "drift" -> run_drift ctx
    | _ -> run_agree ctx
  in
  Printf.printf "feambench %s seed=%d seconds=%g (untraced)\n" ctx.workload ctx.seed ctx.seconds;
  List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
  List.iter Stats.print_reading (r.metrics @ r.report);
  Stats.print_reading
    (Stats.reading ~n:r.attempted "fail_frac" "ratio"
       (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
  finish ~attempted:r.attempted ~failed:r.failed r.metrics

let span_dir = ".perfbench"

let run_traced ctx =
  let t =
    match ctx.workload with
    | "matrix" -> traced_matrix ctx
    | "serve" -> traced_serve ctx
    | "drift" -> traced_drift ctx
    | _ -> traced_agree ctx
  in
  let tbl = Tracer.layers () in
  let layer_readings (l : Claims.layer) =
    let x =
      Option.value (Hashtbl.find_opt tbl l.Claims.layer)
        ~default:{ Tracer.calls = 0; self_s = 0.0; durations = []; self_words = 0.0 }
    in
    List.map
      (fun (suffix, unit) ->
        let value =
          match suffix with
          | "calls" -> float_of_int x.Tracer.calls
          | "self_ms" -> x.Tracer.self_s *. 1e3
          | "p50_us" -> Stats.median x.Tracer.durations *. 1e6
          | _ -> x.Tracer.self_words /. 1e6
        in
        Stats.reading ~n:x.Tracer.calls (l.Claims.layer ^ "." ^ suffix) unit value)
      Claims.suffixes
  in
  let extra =
    t.extra
    @ [
        ("trace.overhead_share", (t.traced_s /. Float.max 1e-9 t.untraced_s, 1));
        ( "trace.unattributed_share",
          (Float.max 0.0 (1.0 -. (Tracer.covered_s () /. Float.max 1e-9 t.spanned_s)), 1) );
      ]
  in
  Printf.printf "feambench %s seed=%d seconds=%g (traced)\n" ctx.workload ctx.seed ctx.seconds;
  List.iter (fun n -> Printf.printf "  %s\n" n) t.t_notes;
  let claim moves flat = Printf.printf "      should move: %s\n      flat: %s\n" moves flat in
  let layers =
    List.concat_map
      (fun (l : Claims.layer) ->
        let rs = layer_readings l in
        if (List.hd rs).Stats.n > 0 then begin
          List.iter Stats.print_reading rs;
          claim l.Claims.l_moves l.Claims.l_flat
        end;
        rs)
      Claims.layers
  in
  let extras =
    List.map
      (fun (c : Claims.claim) ->
        match List.assoc_opt c.Claims.metric extra with
        | Some (v, n) ->
          let r = Stats.reading ~n c.Claims.metric c.Claims.unit v in
          Stats.print_reading r;
          claim c.Claims.moves c.Claims.flat;
          r
        | None -> Stats.reading ~n:0 c.Claims.metric c.Claims.unit 0.0)
      Claims.extras
  in
  let readings = layers @ extras in
  if not (Sys.file_exists span_dir) then Sys.mkdir span_dir 0o755;
  let path = Filename.concat span_dir ("spans-" ^ ctx.workload ^ ".jsonl") in
  Tracer.write_jsonl path;
  Printf.printf "  spans written to %s\n" path;
  finish ~attempted:t.t_attempted ~failed:t.t_failed readings

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let claims = ref false in
  let usage = "feambench --workload matrix|serve|drift|agree --seed N --seconds S --trace 0|1" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  matrix, serve, drift or agree");
      ("--seed", Arg.Set_int seed, "N  seed every input derives from");
      ("--seconds", Arg.Set_float seconds, "S  how long one run measures");
      ("--trace", Arg.Set_int trace, "0|1  untraced end-to-end run, or traced per-layer run");
      ("--claims", Arg.Set claims, " print what each per-layer metric should move, as JSON");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !claims then print_endline (Claims.to_json ())
  else begin
    if not (List.mem !workload [ "matrix"; "serve"; "drift"; "agree" ]) then begin
      prerr_endline usage;
      exit 2
    end;
    if not (Sys.file_exists expected_file) then begin
      prerr_endline ("feambench: " ^ expected_file ^ " not found; run from the repository root");
      exit 2
    end;
    let ctx = { workload = !workload; seed = !seed; seconds = !seconds } in
    match !trace with
    | 0 -> run_untraced ctx
    | 1 -> run_traced ctx
    | _ ->
      prerr_endline usage;
      exit 2
  end
