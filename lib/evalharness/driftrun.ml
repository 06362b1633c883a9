(* The seeded drift sequence: replay fleet change as N numbered epochs
   over the migration matrix, snapshotting evidence at each epoch and
   re-evaluating only the cells the invalidation engine marks affected.

   A run builds its world once — binaries are compiled *before*
   perturbations land, so the matrix shape is constant across the
   sequence and cells can be compared epoch to epoch — and keeps it
   resident ([World], which `feam serve` keeps too): each epoch changes
   one site in place and recaptures only that site and the binaries
   homed there.  One evaluation context serves the whole run: the pass
   memo keeps its entries per site state, so the entries for the other
   sites serve on.  The closing cross-check compares the live world's
   last epoch with a world rebuilt from scratch.

   Perturbations reuse the scenario generator's vocabulary (Remove_lib,
   Stale_ld_cache), pinned to a Table II site, drawn from the keyed
   PRNG stream "drift/epoch/<k>".  Draws toggle: re-drawing an active
   perturbation undoes it exactly, so sequences include recoveries
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

(* Live images read their key through their handle; derived strings
   (rendered specs, scripts, text) hash directly. *)
let digest bytes = Chash.to_hex (Chash.of_bytes bytes)
let image_digest image = Chash.to_hex (Feam_elf.Reader.image_key image)

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

(* -- world construction ------------------------------------------------ *)

let remove_lib site name =
  let vfs = Site.vfs site in
  List.filter_map
    (fun path ->
      let stored = Vfs.entry vfs path in
      Vfs.remove vfs path;
      Option.map (fun file -> (path, file)) stored)
    (Vfs.find_by_basename vfs (fun b -> b = name))

(* Apply [p] to live sites and return its undo, which puts back exactly
   what [p] changed: the removed files as they were stored (a symlink
   stays a symlink), or the cache flag as it was. *)
let apply_perturbation sites p =
  let site = Sites.find_by_name sites p.pe_site in
  match p.pe_what with
  | Scengen.Stale_ld_cache ->
    let before = Site.ld_cache_current site in
    Site.set_ld_cache_current site false;
    fun () -> Site.set_ld_cache_current site before
  | Scengen.Remove_lib name ->
    let removed = remove_lib site name in
    fun () ->
      List.iter
        (fun (path, { Vfs.kind; declared_size }) ->
          Vfs.add ~declared_size (Site.vfs site) path kind)
        removed
  | other (* the drift draw only emits the two kinds above *) ->
    invalid_arg ("Driftrun: no drift epoch applies " ^ Scengen.perturbation_to_string other)

type active = (perturbation * (unit -> unit)) list

(* Toggle semantics: drawing an active perturbation undoes it. *)
let toggle sites active p =
  match List.assoc_opt p active with
  | Some undo ->
    undo ();
    (List.remove_assoc p active, "undo " ^ perturbation_label p)
  | None -> (active @ [ (p, apply_perturbation sites p) ], perturbation_label p)

(* Fresh world + testset, then the active perturbation set on top.
   Testset.build runs before perturbations so the corpus (and with it
   the matrix shape) is identical at every epoch. *)
let build_world params specs benchmarks active =
  let sites = Sites.build_specs params specs in
  let binaries = Testset.build params sites benchmarks in
  List.iter (fun p -> ignore (apply_perturbation sites p : unit -> unit)) active;
  (sites, binaries)

(* -- evidence capture -------------------------------------------------- *)

let capture_site ?ctx site =
  let vfs = Site.vfs site in
  let inventory =
    List.concat_map
      (fun dir -> Vfs.find_under vfs dir (fun _ -> true))
      (List.sort_uniq compare (Site.default_lib_dirs site @ Site.ld_conf_dirs site))
    |> List.sort_uniq compare
    |> List.filter_map (fun path ->
           match Vfs.find vfs path with
           | Some { Vfs.kind = Vfs.Elf _; _ } ->
             Option.map
               (fun (_, image) -> (path, image_digest image))
               (Vfs.resolve_image vfs path)
           | Some { Vfs.kind = Vfs.Script bytes | Vfs.Text bytes; _ } ->
             Some (path, digest bytes)
           (* [Vfs.find] follows links, so it never returns one *)
           | Some { Vfs.kind = Vfs.Symlink _; _ } | None -> None)
  in
  {
    Snapshot.ss_name = Site.name site;
    ss_ld_cache_current = Site.ld_cache_current site;
    ss_discovery =
      Feam_core.Discovery.to_json
        (Feam_core.Edc.discover ?ctx ~env_type:`Target site
           (Site.base_env site));
    ss_inventory = inventory;
  }

let capture_binary ?ctx (binary : Testset.binary) =
  match Migrate.source_bundle ?ctx binary with
  | Error e ->
    {
      Snapshot.bs_id = binary.Testset.id;
      bs_home = Site.name binary.Testset.home;
      bs_digest = image_digest binary.Testset.image;
      bs_error = Some e;
      bs_description = Json.Null;
      bs_bundle = [];
    }
  | Ok bundle ->
    let open Feam_core in
    {
      Snapshot.bs_id = binary.Testset.id;
      bs_home = Site.name binary.Testset.home;
      bs_digest = image_digest binary.Testset.image;
      bs_error = None;
      bs_description = Description.to_json bundle.Bundle.binary_description;
      bs_bundle =
        List.map
          (fun c ->
            ( "copy:" ^ c.Bdc.copy_request,
              image_digest c.Bdc.copy_image ))
          bundle.Bundle.copies
        @ List.map
            (fun p ->
              ("probe:" ^ p.Bundle.probe_name, image_digest p.Bundle.probe_image))
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

(* Each pass below runs under [ctx] (DESIGN §17), which serves one
   world across changes to its sites; a caller that rebuilds the world
   starts a new one. *)
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

(* An epoch snapshot from captured evidence around a verdict table. *)
let assemble ~epoch ~seed ~label site_states binary_states cells =
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

(* Capture a whole world as an epoch snapshot around an already-computed
   verdict table: the cold reference the resident world is checked
   against. *)
let snapshot_of_world ?ctx ~epoch ~seed ~label sites binaries ~cells =
  assemble ~epoch ~seed ~label
    (List.map (capture_site ?ctx) sites)
    (List.map (capture_binary ?ctx) binaries)
    cells

(* -- the resident world ------------------------------------------------ *)

(* The world drift and serve keep between changes: its sites and
   binaries, each owner's last capture and the verdict table, under one
   context for the world's lifetime.  A change recaptures only the site
   it touched and the binaries homed there, so the other owners'
   captures serve on. *)
module World = struct
  type t = {
    ctx : Feam_core.Eval_ctx.t;
    mutable sites : Site.t list;
    mutable binaries : Testset.binary list;
    site_captures : (string, Snapshot.site_state) Hashtbl.t;
    binary_captures : (string, Snapshot.binary_state) Hashtbl.t;
    mutable cells : Snapshot.cell list;  (* matrix enumeration order *)
  }

  let sites w = w.sites
  let binaries w = w.binaries
  let cells w = w.cells

  (* Replace an owner's capture; the changes are the atom diff against
     the one it replaces (every atom is new for a new owner). *)
  let replace tbl key owner atoms state =
    let before = Option.fold ~none:[] ~some:atoms (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key state;
    Feam_core.Evidence.diff owner before (atoms state)

  let capture w sites binaries =
    List.concat_map
      (fun site ->
        let name = Site.name site in
        replace w.site_captures name (Snapshot.Site_owner name)
          Snapshot.site_atoms (capture_site ~ctx:w.ctx site))
      sites
    @ List.concat_map
        (fun (b : Testset.binary) ->
          let id = b.Testset.id in
          replace w.binary_captures id (Snapshot.Binary_owner id)
            Snapshot.binary_atoms (capture_binary ~ctx:w.ctx b))
        binaries

  let create sites binaries =
    let ctx = Feam_core.Eval_ctx.create () in
    let w =
      {
        ctx;
        sites;
        binaries;
        site_captures = Hashtbl.create 16;
        binary_captures = Hashtbl.create 256;
        cells = predict_all ~ctx sites binaries;
      }
    in
    ignore (capture w sites binaries : Feam_core.Evidence.change list);
    w

  (* A change at a site surfaces in the site's own evidence and, through
     their bundles, in the binaries homed there; nothing else moves.
     Changes come out in (owner, path) order, as [Invalidate.affected]
     lists them. *)
  let recapture w site_name =
    let open Feam_core.Evidence in
    capture w
      [ Sites.find_by_name w.sites site_name ]
      (List.filter
         (fun (b : Testset.binary) -> Site.name b.Testset.home = site_name)
         w.binaries)
    |> List.sort (fun a b ->
           match compare_owner a.ev_owner b.ev_owner with
           | 0 -> String.compare a.ev_path b.ev_path
           | c -> c)

  let step w ~epoch_a ~epoch_b changes =
    let plan = Invalidate.plan ~epoch_a ~epoch_b w.cells changes in
    let before = w.cells in
    w.cells <-
      Invalidate.merge ~base:before
        ~reevaluated:
          (reevaluate ~ctx:w.ctx w.sites w.binaries plan.Invalidate.pl_affected);
    (plan, Invalidate.flips ~before ~after:w.cells)

  (* New owners join: capture them and evaluate only the matrix pairs
     they create. *)
  let extend w sites binaries =
    w.sites <- w.sites @ sites;
    w.binaries <- w.binaries @ binaries;
    ignore (capture w sites binaries : Feam_core.Evidence.change list);
    let resident = Hashtbl.create 1024 in
    List.iter
      (fun (c : Snapshot.cell) ->
        Hashtbl.replace resident (c.Snapshot.cl_binary, c.Snapshot.cl_target) c)
      w.cells;
    let fresh = ref 0 in
    w.cells <-
      List.map
        (fun ((b : Testset.binary), target) ->
          match Hashtbl.find_opt resident (b.Testset.id, Site.name target) with
          | Some c -> c
          | None ->
            incr fresh;
            predict_cell ~ctx:w.ctx b target)
        (all_cells w.sites w.binaries);
    !fresh

  let snapshot w ~epoch ~seed ~label =
    assemble ~epoch ~seed ~label
      (List.map (fun s -> Hashtbl.find w.site_captures (Site.name s)) w.sites)
      (List.map
         (fun (b : Testset.binary) -> Hashtbl.find w.binary_captures b.Testset.id)
         w.binaries)
      w.cells
end

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

(* The one check on resident evidence: a live snapshot must serialize
   byte for byte as a cold capture and a full prediction pass over
   [sites] and [binaries] under a fresh context. *)
let crosscheck (live : Snapshot.t) sites binaries =
  let epoch = live.Snapshot.epoch and seed = live.Snapshot.seed in
  let ctx = Feam_core.Eval_ctx.create () in
  let cells = predict_all ~ctx sites binaries in
  let cold =
    snapshot_of_world ~ctx ~epoch ~seed ~label:live.Snapshot.label sites binaries
      ~cells
  in
  if
    not
      (String.equal
         (cells_doc ~epoch ~seed live.Snapshot.cells)
         (cells_doc ~epoch ~seed cold.Snapshot.cells))
  then
    Error
      (Printf.sprintf
         "incremental verdicts diverge from full re-evaluation at epoch %d" epoch)
  else if not (String.equal (Snapshot.to_jsonl live) (Snapshot.to_jsonl cold))
  then
    Error
      (Printf.sprintf "resident evidence diverges from a cold capture at epoch %d"
         epoch)
  else Ok ()

let run ?(specs = Sites.specs) ?(benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
    ?(progress = fun _ -> ()) ~seed ~epochs () =
  let params = { Params.default with Params.seed } in
  (* One resident world for the whole run: an epoch changes one site in
     place and recaptures only it and the binaries homed there, and the
     pass memo's entries for every other site, and the changed site's
     for a state it was in before, serve on.
     Candidate removals come from the pristine world. *)
  let sites, binaries = build_world params specs benchmarks [] in
  let candidates = removal_candidates sites in
  let site_names = List.map Site.name sites in
  (* Baseline: evaluate every cell and capture every owner once. *)
  let world = World.create sites binaries in
  let base_snapshot = World.snapshot world ~epoch:0 ~seed ~label:"" in
  Invalidate.record_epoch_gauges base_snapshot;
  let cells_total = List.length (World.cells world) in
  let base_entry =
    entry_of_epoch ~label:"" ~reevaluated:cells_total ~plan:None ~flips:[]
      base_snapshot
  in
  progress (Printf.sprintf "epoch 0: baseline, %d cells evaluated" cells_total);
  let rec go k active acc reeval =
    if k > epochs then (List.rev acc, reeval, List.map fst active)
    else begin
      let p = draw ~seed ~epoch:k ~site_names ~candidates in
      let active, label = toggle sites active p in
      let plan, flips =
        World.step world ~epoch_a:(k - 1) ~epoch_b:k
          (World.recapture world p.pe_site)
      in
      let snapshot = World.snapshot world ~epoch:k ~seed ~label in
      let reevaluated = List.length plan.Invalidate.pl_affected in
      Invalidate.record_metrics plan;
      Invalidate.record_epoch_gauges snapshot;
      let entry =
        entry_of_epoch ~label ~reevaluated ~plan:(Some plan) ~flips snapshot
      in
      progress
        (Printf.sprintf "epoch %d: %s — %d/%d cells re-evaluated, %d flip%s" k
           label reevaluated cells_total (List.length flips)
           (if List.length flips = 1 then "" else "s"));
      let er =
        { er_snapshot = snapshot; er_label = label; er_plan = Some plan;
          er_flips = flips; er_entry = entry }
      in
      go (k + 1) active (er :: acc) (reeval + reevaluated)
    end
  in
  let base =
    { er_snapshot = base_snapshot; er_label = ""; er_plan = None; er_flips = [];
      er_entry = base_entry }
  in
  let later, reeval, final_active = go 1 [] [] 0 in
  let epochs_list = base :: later in
  (* Cross-check the live world's last snapshot against a world rebuilt
     from scratch with the same active set. *)
  let final = List.nth epochs_list (List.length epochs_list - 1) in
  let crosscheck =
    let sites, binaries = build_world params specs benchmarks final_active in
    crosscheck final.er_snapshot sites binaries
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
