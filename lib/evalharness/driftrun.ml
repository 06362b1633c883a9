(* The seeded drift sequence: replay fleet change as N numbered epochs
   over the migration matrix, snapshotting evidence at each epoch and
   re-evaluating only the cells the invalidation engine marks affected.

   Epoch k's world is rebuilt from scratch (Sites.build_specs resets
   image counters, so worlds are byte-reproducible) and the currently
   active perturbation set is applied on top — binaries are compiled
   *before* perturbations land, so the matrix shape is constant across
   the sequence and cells can be compared epoch to epoch.

   Perturbations reuse the scenario generator's vocabulary (Remove_lib,
   Stale_ld_cache), pinned to a Table II site, drawn from the keyed
   PRNG stream "drift/epoch/<k>".  Draws toggle: re-drawing an active
   perturbation deactivates it, so sequences include recoveries
   (not-ready -> ready flips), not just decay. *)

open Feam_sysmodel

module Snapshot = Feam_drift.Snapshot
module Invalidate = Feam_drift.Invalidate
module Timeline = Feam_drift.Timeline
module Chash = Feam_util.Chash
module Json = Feam_util.Json
module Prng = Feam_util.Prng

type perturbation = { pe_site : string; pe_what : Scengen.perturbation }

let perturbation_label p =
  Printf.sprintf "%s @ %s" (Scengen.perturbation_to_string p.pe_what) p.pe_site

(* Live images read their key from the parse memo; derived strings
   (rendered specs, scripts, text) hash directly. *)
let digest bytes = Chash.to_hex (Chash.of_bytes bytes)
let image_digest bytes = Chash.to_hex (Feam_elf.Reader.content_key bytes)

(* -- perturbation draws ------------------------------------------------ *)

(* Loader-visible library basenames a Remove_lib draw may target,
   computed from the pristine world so the candidate list never depends
   on what is already broken.  The loader and libc stay off the menu:
   removing either collapses every cell of a site at once, which makes
   for a dull timeline. *)
let removal_candidates sites =
  List.concat_map
    (fun site ->
      let vfs = Site.vfs site in
      List.concat_map
        (fun dir -> Vfs.find_under vfs dir (fun _ -> true))
        (Site.default_lib_dirs site))
    sites
  |> List.map Vfs.basename
  |> List.filter (fun b ->
         not
           (String.length b >= 3
            && (String.sub b 0 3 = "ld-" || String.sub b 0 3 = "ld.")
           || String.length b >= 7 && String.sub b 0 7 = "libc.so"))
  |> List.sort_uniq compare

let draw ~seed ~epoch ~site_names ~candidates =
  let rng = Prng.of_key ~seed (Printf.sprintf "drift/epoch/%d" epoch) in
  let site = Prng.pick rng site_names in
  let what =
    if Prng.bool rng 0.25 then Scengen.Stale_ld_cache
    else Scengen.Remove_lib (Prng.pick rng candidates)
  in
  { pe_site = site; pe_what = what }

(* Toggle semantics: drawing an active perturbation deactivates it. *)
let toggle active p =
  if List.mem p active then
    (List.filter (fun q -> q <> p) active, "undo " ^ perturbation_label p)
  else (active @ [ p ], perturbation_label p)

(* -- world construction ------------------------------------------------ *)

let remove_lib site name =
  List.iter (Vfs.remove (Site.vfs site)) (Vfs.find_by_basename (Site.vfs site) (fun b -> b = name))

let apply_perturbation sites p =
  let site = Sites.find_by_name sites p.pe_site in
  match p.pe_what with
  | Scengen.Stale_ld_cache -> Site.set_ld_cache_current site false
  | Scengen.Remove_lib name -> remove_lib site name
  | _ -> () (* the drift draw only emits the two kinds above *)

(* Fresh world + testset, then the active perturbation set on top.
   Testset.build runs before perturbations so the corpus (and with it
   the matrix shape) is identical at every epoch. *)
let build_world params specs benchmarks active =
  let sites = Sites.build_specs params specs in
  let binaries = Testset.build params sites benchmarks in
  List.iter (apply_perturbation sites) active;
  (sites, binaries)

(* -- evidence capture -------------------------------------------------- *)

let capture_site site =
  let vfs = Site.vfs site in
  let inventory =
    List.concat_map
      (fun dir -> Vfs.find_under vfs dir (fun _ -> true))
      (List.sort_uniq compare (Site.default_lib_dirs site @ Site.ld_conf_dirs site))
    |> List.sort_uniq compare
    |> List.filter_map (fun path ->
           match Vfs.find vfs path with
           | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
             Some (path, image_digest bytes)
           | Some { Vfs.kind = Vfs.Symlink target; _ } ->
             Some (path, "->" ^ target)
           | Some { Vfs.kind = Vfs.Script bytes | Vfs.Text bytes; _ } ->
             Some (path, digest bytes)
           | None -> None)
  in
  {
    Snapshot.ss_name = Site.name site;
    ss_ld_cache_current = Site.ld_cache_current site;
    ss_discovery =
      Feam_core.Discovery.to_json
        (Feam_core.Edc.discover ~env_type:`Target site (Site.base_env site));
    ss_inventory = inventory;
  }

(* Probe images embed a fresh [Build_id] per compile, so raw probe bytes
   differ between two captures of the same world (and between epochs
   that didn't touch the home site).  Fingerprint the parsed spec with
   the provenance comments dropped instead: the probe's loader-relevant
   content, stable across recompiles, still sensitive to real home-site
   change (different needed libs, different interp, ...). *)
let probe_fingerprint bytes =
  match Feam_elf.Reader.spec_of_bytes bytes with
  | Ok spec ->
    digest
      (Fmt.str "%a" Feam_elf.Spec.pp { spec with Feam_elf.Spec.comments = [] })
  | Error _ -> image_digest bytes

let capture_binary ?ctx (binary : Testset.binary) =
  match Migrate.source_bundle ?ctx binary with
  | Error e ->
    {
      Snapshot.bs_id = binary.Testset.id;
      bs_home = Site.name binary.Testset.home;
      bs_digest = image_digest binary.Testset.bytes;
      bs_error = Some e;
      bs_description = Json.Null;
      bs_bundle = [];
    }
  | Ok bundle ->
    let open Feam_core in
    {
      Snapshot.bs_id = binary.Testset.id;
      bs_home = Site.name binary.Testset.home;
      bs_digest = image_digest binary.Testset.bytes;
      bs_error = None;
      bs_description = Description.to_json bundle.Bundle.binary_description;
      bs_bundle =
        List.map
          (fun c ->
            ("copy:" ^ c.Bdc.copy_request, image_digest c.Bdc.copy_bytes))
          bundle.Bundle.copies
        @ List.map
            (fun p ->
              ("probe:" ^ p.Bundle.probe_name,
               probe_fingerprint p.Bundle.probe_bytes))
            bundle.Bundle.probes
        @ List.map (fun u -> ("unlocatable:" ^ u, "missing")) bundle.Bundle.unlocatable
        @ [
            ( "source_discovery",
              digest (Json.render (Discovery.to_json bundle.Bundle.source_discovery)) );
          ];
    }

(* -- prediction-only cell evaluation ----------------------------------- *)

(* The matrix: Migrate's cell criterion. *)
let all_cells = Migrate.cells

(* Migrate.migrate's steps without the two ground-truth executions.
   Predictions never consume the exec PRNG, so the fields here are
   byte-identical to a full Migrate.run_all at the same epoch (the
   cross-check below proves it per run). *)
let predict_cell ?ctx (binary : Testset.binary) target =
  Migrate.with_staged binary target @@ fun staged_path ->
  let basic = Migrate.basic_prediction ?ctx target staged_path in
  let extended = Migrate.extended_prediction ?ctx binary target staged_path in
  {
    Snapshot.cl_binary = binary.Testset.id;
    cl_target = Site.name target;
    cl_basic = basic.Migrate.ready;
    cl_basic_reasons = basic.Migrate.reasons;
    cl_extended = extended.Migrate.ready;
    cl_extended_reasons = extended.Migrate.reasons;
    cl_staged = extended.Migrate.staged;
  }

(* Each pass below is one evaluation pass under [ctx] (DESIGN §17); a
   caller holding a context across passes starts each with
   [Eval_ctx.next_pass]. *)
let predict_all ?(ctx = Feam_core.Eval_ctx.create ()) sites binaries =
  List.map (fun (b, t) -> predict_cell ~ctx b t) (all_cells sites binaries)

(* The one re-evaluation step of every incremental consumer: predict
   the cells a plan reached, in the order given. *)
let reevaluate ?(ctx = Feam_core.Eval_ctx.create ()) sites binaries ids =
  let binary = Testset.by_id binaries in
  List.map
    (fun (c : Invalidate.cell_id) ->
      predict_cell ~ctx
        (binary c.Invalidate.ci_binary)
        (Sites.find_by_name sites c.Invalidate.ci_target))
    ids

let cell_of_migration (m : Migrate.migration) =
  {
    Snapshot.cl_binary = m.Migrate.binary.Testset.id;
    cl_target = m.Migrate.target_name;
    cl_basic = m.Migrate.basic_ready;
    cl_basic_reasons = m.Migrate.basic_reasons;
    cl_extended = m.Migrate.extended_ready;
    cl_extended_reasons = m.Migrate.extended_reasons;
    cl_staged = m.Migrate.staged_copies;
  }

(* Depot possession per target site, derived from ready cells: the
   bundle objects (by content address) their plans staged there. *)
let derive_possession binaries cells =
  let bundle_digest =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (b : Snapshot.binary_state) ->
        List.iter
          (fun (name, d) -> Hashtbl.replace tbl (b.Snapshot.bs_id, name) d)
          b.Snapshot.bs_bundle)
      binaries;
    fun id name -> Hashtbl.find_opt tbl (id, "copy:" ^ name)
  in
  List.filter (fun (c : Snapshot.cell) -> c.Snapshot.cl_extended) cells
  |> List.concat_map (fun (c : Snapshot.cell) ->
         List.filter_map
           (fun name ->
             Option.map
               (fun d -> (c.Snapshot.cl_target, d))
               (bundle_digest c.Snapshot.cl_binary name))
           c.Snapshot.cl_staged)
  |> List.sort_uniq compare
  |> List.fold_left
       (fun acc (site, d) ->
         match acc with
         | (s, ds) :: rest when s = site -> (s, d :: ds) :: rest
         | acc -> (site, [ d ]) :: acc)
       []
  |> List.map (fun (s, ds) -> (s, List.rev ds))
  |> List.rev

(* Capture a whole world as an epoch snapshot around an already-computed
   verdict table.  Top-level (not a closure inside [run]) so tests and
   benches snapshot the same way the sequence does. *)
let snapshot_of_world ?ctx ~epoch ~seed ~label sites binaries ~cells =
  let site_states = List.map capture_site sites in
  let binary_states = List.map (capture_binary ?ctx) binaries in
  Snapshot.normalize
    {
      Snapshot.epoch;
      seed;
      label;
      sites = site_states;
      binaries = binary_states;
      possession = derive_possession binary_states cells;
      cells;
    }

(* -- the sequence ------------------------------------------------------ *)

type epoch_result = {
  er_snapshot : Snapshot.t;
  er_label : string;
  er_plan : Invalidate.plan option; (* None at the baseline epoch *)
  er_flips : Invalidate.flip list;
  er_entry : Timeline.entry;
}

type t = {
  dr_seed : int;
  dr_epochs : epoch_result list;
  dr_cells_total : int;
  dr_cells_reevaluated : int; (* post-baseline incremental work *)
  dr_cells_full : int; (* what full re-evaluation would have cost *)
  dr_crosscheck : (unit, string) result;
}

let entry_of_epoch ~label ~reevaluated ~plan ~flips snapshot =
  {
    Timeline.te_epoch = snapshot.Snapshot.epoch;
    te_hash = Snapshot.hash snapshot;
    te_label = label;
    te_cells_total = List.length snapshot.Snapshot.cells;
    te_ready = Snapshot.ready_cells snapshot;
    te_rate = Snapshot.readiness_rate snapshot;
    te_reevaluated = reevaluated;
    te_flips =
      List.map
        (fun (f : Invalidate.flip) ->
          {
            Timeline.fe_cell = Invalidate.cell_id_key f.Invalidate.fp_cell;
            fe_before = f.Invalidate.fp_before;
            fe_after = f.Invalidate.fp_after;
          })
        flips;
    te_attribution =
      (match plan with
      | None -> []
      | Some plan ->
        List.map
          (fun (at : Invalidate.attribution) ->
            let ch = at.Invalidate.at_change in
            let ev = ch.Invalidate.ch_atom in
            {
              Timeline.ae_atom =
                Snapshot.owner_to_string ev.Feam_core.Evidence.ev_owner
                ^ " " ^ ev.Feam_core.Evidence.ev_path;
              ae_cells = List.length ch.Invalidate.ch_cells;
              ae_to_ready = at.Invalidate.at_to_ready;
              ae_to_not_ready = at.Invalidate.at_to_not_ready;
            })
          (Invalidate.attribute plan flips));
  }

(* Serialize just the verdict table, for byte-level comparison between
   the incremental result and a full re-evaluation. *)
let cells_doc ~epoch ~seed cells =
  Snapshot.to_jsonl
    {
      Snapshot.epoch;
      seed;
      label = "";
      sites = [];
      binaries = [];
      possession = [];
      cells;
    }

let run ?(specs = Sites.specs) ?(benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
    ?(progress = fun _ -> ()) ~seed ~epochs () =
  let params = { Params.default with Params.seed } in
  (* One context for the whole run: descriptions carry over between
     epochs, each prediction pass gets a fresh stack memo. *)
  let ctx = Feam_core.Eval_ctx.create () in
  let pass () = Feam_core.Eval_ctx.next_pass ctx in
  (* Candidate removals come from the pristine epoch-0 world. *)
  let sites0, binaries0 = build_world params specs benchmarks [] in
  let candidates = removal_candidates sites0 in
  let site_names = List.map Site.name sites0 in
  let snapshot_of ~epoch ~label ~sites ~binaries ~cells =
    snapshot_of_world ~ctx ~epoch ~seed ~label sites binaries ~cells
  in
  (* Baseline: evaluate every cell once. *)
  let cells0 = predict_all ~ctx:(pass ()) sites0 binaries0 in
  let base_snapshot =
    snapshot_of ~epoch:0 ~label:"" ~sites:sites0 ~binaries:binaries0
      ~cells:cells0
  in
  Invalidate.record_epoch_gauges base_snapshot;
  let base_entry =
    entry_of_epoch ~label:"" ~reevaluated:(List.length cells0) ~plan:None
      ~flips:[] base_snapshot
  in
  progress
    (Printf.sprintf "epoch 0: baseline, %d cells evaluated" (List.length cells0));
  let cells_total = List.length cells0 in
  let rec go k active prev acc reeval =
    if k > epochs then (List.rev acc, reeval)
    else begin
      let p = draw ~seed ~epoch:k ~site_names ~candidates in
      let active, label = toggle active p in
      let sites, binaries = build_world params specs benchmarks active in
      (* Capture the new epoch's evidence with the previous verdicts
         still in place, diff, then re-evaluate only the plan. *)
      let candidate =
        snapshot_of ~epoch:k ~label ~sites ~binaries
          ~cells:prev.er_snapshot.Snapshot.cells
      in
      let plan = Invalidate.affected prev.er_snapshot candidate in
      let reevaluated =
        reevaluate ~ctx:(pass ()) sites binaries plan.Invalidate.pl_affected
      in
      let cells =
        Invalidate.merge ~base:prev.er_snapshot.Snapshot.cells ~reevaluated
      in
      let flips = Invalidate.flips ~before:prev.er_snapshot.Snapshot.cells ~after:cells in
      let snapshot =
        Snapshot.normalize
          {
            candidate with
            Snapshot.cells;
            possession = derive_possession candidate.Snapshot.binaries cells;
          }
      in
      Invalidate.record_metrics plan;
      Invalidate.record_epoch_gauges snapshot;
      let entry =
        entry_of_epoch ~label
          ~reevaluated:(List.length plan.Invalidate.pl_affected)
          ~plan:(Some plan) ~flips snapshot
      in
      progress
        (Printf.sprintf "epoch %d: %s — %d/%d cells re-evaluated, %d flip%s" k
           label
           (List.length plan.Invalidate.pl_affected)
           cells_total (List.length flips)
           (if List.length flips = 1 then "" else "s"));
      let er =
        { er_snapshot = snapshot; er_label = label; er_plan = Some plan;
          er_flips = flips; er_entry = entry }
      in
      go (k + 1) active er (er :: acc)
        (reeval + List.length plan.Invalidate.pl_affected)
    end
  in
  let base =
    { er_snapshot = base_snapshot; er_label = ""; er_plan = None; er_flips = [];
      er_entry = base_entry }
  in
  let later, reeval = go 1 [] base [] 0 in
  let epochs_list = base :: later in
  (* Cross-check: a full prediction pass over the final world must agree
     byte-for-byte with the incrementally maintained verdict table. *)
  let final = List.nth epochs_list (List.length epochs_list - 1) in
  let crosscheck =
    let full =
      let active =
        (* replay the toggles to recover the final active set *)
        let rec replay k active =
          if k > epochs then active
          else
            let p = draw ~seed ~epoch:k ~site_names ~candidates in
            replay (k + 1) (fst (toggle active p))
        in
        replay 1 []
      in
      let sites, binaries = build_world params specs benchmarks active in
      predict_all ~ctx:(pass ()) sites binaries
    in
    let a =
      cells_doc ~epoch:final.er_snapshot.Snapshot.epoch ~seed
        final.er_snapshot.Snapshot.cells
    in
    let b = cells_doc ~epoch:final.er_snapshot.Snapshot.epoch ~seed full in
    if String.equal a b then Ok ()
    else
      Error
        (Printf.sprintf
           "incremental verdicts diverge from full re-evaluation at epoch %d"
           final.er_snapshot.Snapshot.epoch)
  in
  {
    dr_seed = seed;
    dr_epochs = epochs_list;
    dr_cells_total = cells_total;
    dr_cells_reevaluated = reeval;
    dr_cells_full = cells_total * epochs;
    dr_crosscheck = crosscheck;
  }

let timeline t = List.map (fun er -> er.er_entry) t.dr_epochs

let snapshots t = List.map (fun er -> er.er_snapshot) t.dr_epochs

(* A reduced world — the last two Table II sites (india and fir share a
   glibc and overlapping MPI stacks, so the matrix has cells in both
   directions) over two NPB kernels.  Tests, benches, and quick CLI
   runs share it so their sequences stay comparable. *)
let small_specs () =
  let n = List.length Sites.specs in
  List.filteri (fun i _ -> i >= n - 2) Sites.specs

let small_benchmarks () = List.filteri (fun i _ -> i < 2) Feam_suites.Npb.all
