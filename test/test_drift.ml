(* Tests for the fleet drift observatory: epoch snapshots (double-capture
   byte identity, JSONL round-trips, the epoch store), the invalidation
   engine (dependency-map routing, attribution golden, a qcheck property
   that changed verdicts always fall inside the re-evaluation set), the
   incremental-vs-full byte-identity guarantee against Migrate.run_all,
   and the readiness timeline (history round-trip, alert rules, the
   Engine.gate-mirroring exit-code gate). *)

open Feam_evalharness
module Snapshot = Feam_drift.Snapshot
module Epoch_store = Feam_drift.Epoch_store
module Invalidate = Feam_drift.Invalidate
module Timeline = Feam_drift.Timeline
module Evidence = Feam_core.Evidence

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let params = Params.default
let seed = params.Params.seed

(* The reduced two-site, two-benchmark world every expensive test runs
   on; the fixture is forced once and shared. *)
let small_world =
  lazy
    (let specs = Driftrun.small_specs () in
     let benchmarks = Driftrun.small_benchmarks () in
     (specs, benchmarks))

let build_with active =
  let specs, benchmarks = Lazy.force small_world in
  Driftrun.build_world params specs benchmarks active

(* -- snapshots ----------------------------------------------------------- *)

let test_double_snapshot_byte_identity () =
  let snap () =
    let sites, binaries = build_with [] in
    let ctx = Feam_core.Eval_ctx.create () in
    let cells = Driftrun.predict_all ~ctx sites binaries in
    Snapshot.to_jsonl
      (Driftrun.snapshot_of_world ~ctx ~epoch:0 ~seed ~label:"" sites binaries
         ~cells)
  in
  let a = snap () in
  let b = snap () in
  Alcotest.(check string) "the same world snapshots byte-identically" a b

let test_snapshot_roundtrip () =
  let sites, binaries = build_with [] in
  let ctx = Feam_core.Eval_ctx.create () in
  let cells = Driftrun.predict_all ~ctx sites binaries in
  let snapshot =
    Driftrun.snapshot_of_world ~ctx ~epoch:3 ~seed ~label:"x @ y" sites binaries
      ~cells
  in
  let doc = Snapshot.to_jsonl snapshot in
  match Snapshot.of_jsonl doc with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok reparsed ->
    Alcotest.(check string)
      "of_jsonl . to_jsonl is the identity on bytes" doc
      (Snapshot.to_jsonl reparsed);
    Alcotest.(check string)
      "and on the content address" (Snapshot.hash snapshot)
      (Snapshot.hash reparsed)

let test_snapshot_parse_errors () =
  (match Snapshot.of_jsonl "" with
  | Ok _ -> Alcotest.fail "empty document should not parse"
  | Error e ->
    Alcotest.(check string) "empty doc error" "empty epoch document" e);
  (match Snapshot.of_jsonl "{\"type\":\"journal\",\"schema\":1}\n" with
  | Ok _ -> Alcotest.fail "non-epoch document should not parse"
  | Error _ -> ());
  match
    Snapshot.of_jsonl "{\"type\":\"epoch\",\"schema\":99,\"tool\":\"drift\"}\n"
  with
  | Ok _ -> Alcotest.fail "newer schema should not parse"
  | Error e ->
    Alcotest.(check bool) "schema error names the schema" true
      (contains ~affix:"schema" e)

let test_epoch_store_roundtrip () =
  let dir = Filename.temp_file "feam_drift" "" in
  Sys.remove dir;
  let store = Epoch_store.open_ dir in
  let sites, binaries = build_with [] in
  let ctx = Feam_core.Eval_ctx.create () in
  let cells = Driftrun.predict_all ~ctx sites binaries in
  let s0 =
    Driftrun.snapshot_of_world ~ctx ~epoch:0 ~seed ~label:"" sites binaries ~cells
  in
  let s2 = { s0 with Snapshot.epoch = 2; label = "later" } in
  let path0 = Epoch_store.put store s0 in
  let path2 = Epoch_store.put store s2 in
  Alcotest.(check bool) "epoch file written" true (Sys.file_exists path0);
  Alcotest.(check (list string)) "one numbered file per epoch"
    [ "epoch_0000.jsonl"; "epoch_0002.jsonl" ]
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  (match
     Snapshot.of_jsonl (In_channel.with_open_text path2 In_channel.input_all)
   with
  | Error e -> Alcotest.failf "read epoch 2: %s" e
  | Ok got ->
    Alcotest.(check string)
      "store round-trip is byte-identical"
      (Snapshot.to_jsonl s2) (Snapshot.to_jsonl got));
  Alcotest.(check string) "put is idempotent" path2 (Epoch_store.put store s2)

(* -- invalidation: synthetic two-epoch fleet ----------------------------- *)

(* A hand-built fleet: two sites, two binaries, a 2x1 matrix.  Epoch B
   changes one site-owned atom (siteB loses a library) and one
   binary-owned atom (bin2's bundle gains an unlocatable), and bin1's
   cell flips ready -> not-ready. *)
let synthetic_epochs () =
  let site name inv =
    {
      Snapshot.ss_name = name;
      ss_ld_cache_current = true;
      ss_discovery =
        Feam_util.Json.Obj [ ("glibc", Feam_util.Json.Str "2.5") ];
      ss_inventory = inv;
    }
  in
  let binary id home bundle =
    {
      Snapshot.bs_id = id;
      bs_home = home;
      bs_digest = "d0";
      bs_error = None;
      bs_description =
        Feam_util.Json.Obj [ ("format", Feam_util.Json.Str "ELF64") ];
      bs_bundle = bundle;
    }
  in
  let cell binary target ready =
    {
      Snapshot.cl_binary = binary;
      cl_target = target;
      cl_basic = true;
      cl_basic_reasons = [];
      cl_extended = ready;
      cl_extended_reasons = (if ready then [] else [ "missing libm.so" ]);
      cl_staged = [];
    }
  in
  let base =
    Snapshot.normalize
      {
        Snapshot.epoch = 0;
        seed = 7;
        label = "";
        sites =
          [
            site "siteA" [ ("/usr/lib64/libm.so", "aa") ];
            site "siteB" [ ("/usr/lib64/libm.so", "bb") ];
          ];
        binaries =
          [
            binary "bin1" "siteA" [ ("copy:libm.so", "aa") ];
            binary "bin2" "siteB" [ ("copy:libm.so", "bb") ];
          ];
        possession = [];
        cells = [ cell "bin1" "siteB" true; cell "bin2" "siteA" true ];
      }
  in
  let next =
    Snapshot.normalize
      {
        base with
        Snapshot.epoch = 1;
        label = "remove-lib libm.so @ siteB";
        sites =
          [ site "siteA" [ ("/usr/lib64/libm.so", "aa") ]; site "siteB" [] ];
        binaries =
          [
            binary "bin1" "siteA" [ ("copy:libm.so", "aa") ];
            binary "bin2" "siteB" [ ("unlocatable:libm.so", "missing") ];
          ];
        cells = [ cell "bin1" "siteB" false; cell "bin2" "siteA" true ];
      }
  in
  (base, next)

let test_attribution_golden () =
  let base, next = synthetic_epochs () in
  let plan = Invalidate.affected base next in
  Alcotest.(check int) "epochs recorded" 0 plan.Invalidate.pl_epoch_a;
  Alcotest.(check int) "epochs recorded b" 1 plan.Invalidate.pl_epoch_b;
  Alcotest.(check int) "matrix size" 2 plan.Invalidate.pl_cells_total;
  (* three changed atoms: siteB's inventory entry, bin2's lost copy,
     bin2's new unlocatable *)
  Alcotest.(check int) "changed atoms" 3
    (List.length plan.Invalidate.pl_changes);
  (* both cells invalidated: bin1->siteB via the site atom, bin2->siteA
     via the binary atoms *)
  Alcotest.(check (list string))
    "affected cells"
    [ "bin1->siteB"; "bin2->siteA" ]
    (List.map Invalidate.cell_id_key plan.Invalidate.pl_affected);
  (* the site-owned atom routes to shared_libraries/mpi_stack, not isa *)
  (match
     List.find_opt
       (fun c ->
         c.Invalidate.ch_atom.Evidence.ev_owner = Evidence.Site_owner "siteB"
         && contains ~affix:"inventory" c.Invalidate.ch_atom.Evidence.ev_path)
       plan.Invalidate.pl_changes
   with
  | None -> Alcotest.fail "siteB inventory change not in the plan"
  | Some c ->
    Alcotest.(check (list string))
      "inventory atom feeds the library determinants"
      [ "mpi_stack"; "shared_libraries" ]
      c.Invalidate.ch_atom.Evidence.ev_determinants;
    Alcotest.(check (list string))
      "and invalidates only siteB-targeted cells" [ "bin1->siteB" ]
      (List.map Invalidate.cell_id_key c.Invalidate.ch_cells));
  (* attribution: the flip lands on the atoms that invalidated its cell *)
  let flips =
    Invalidate.flips ~before:base.Snapshot.cells ~after:next.Snapshot.cells
  in
  Alcotest.(check int) "one verdict flip" 1 (List.length flips);
  let attributions = Invalidate.attribute plan flips in
  let flipped_atoms =
    List.filter (fun a -> a.Invalidate.at_to_not_ready > 0) attributions
  in
  Alcotest.(check (list string))
    "the regression is attributed to the siteB inventory atom"
    [ "site siteB inventory./usr/lib64/libm.so" ]
    (List.map
       (fun a ->
         let ev = a.Invalidate.at_change.Invalidate.ch_atom in
         Snapshot.owner_to_string ev.Evidence.ev_owner ^ " " ^ ev.Evidence.ev_path)
       flipped_atoms);
  (* the text rendering names the change and the flip *)
  let text = Invalidate.render_text plan flips in
  List.iter
    (fun affix ->
      Alcotest.(check bool)
        (Printf.sprintf "render contains %S" affix)
        true (contains ~affix text))
    [ "inventory./usr/lib64/libm.so"; "bin1->siteB" ]

let test_merge_replaces_by_key () =
  let base, next = synthetic_epochs () in
  let changed =
    List.filter
      (fun c -> c.Snapshot.cl_binary = "bin1")
      next.Snapshot.cells
  in
  let merged = Invalidate.merge ~base:base.Snapshot.cells ~reevaluated:changed in
  Alcotest.(check int) "merge keeps the matrix size" 2 (List.length merged);
  match
    List.find_opt
      (fun c -> c.Snapshot.cl_binary = "bin1" && c.Snapshot.cl_target = "siteB")
      merged
  with
  | None -> Alcotest.fail "merged cell lost"
  | Some c ->
    Alcotest.(check bool) "re-evaluated row replaced" false c.Snapshot.cl_extended

(* Unknown atom paths must conservatively invalidate everything. *)
let test_unknown_atom_is_conservative () =
  let all = [ "isa"; "glibc"; "mpi_stack"; "shared_libraries" ] in
  (* the determinants a changed atom is annotated with *)
  let fed owner path =
    match Evidence.diff owner [ (path, "old") ] [ (path, "new") ] with
    | [ c ] -> c.Evidence.ev_determinants
    | cs -> Alcotest.failf "expected one change, got %d" (List.length cs)
  in
  Alcotest.(check (list string))
    "unknown site atom feeds all determinants" all
    (fed (Evidence.Site_owner "s") "mystery.atom");
  Alcotest.(check (list string))
    "unknown binary atom feeds all determinants" all
    (fed (Evidence.Binary_owner "b") "mystery")

(* -- qcheck: changed verdicts are a subset of the re-evaluation set ------ *)

let prop_flips_within_affected =
  QCheck.Test.make ~count:6 ~name:"changed-verdict cells are in the plan"
    QCheck.(int_range 1 1000)
    (fun pseed ->
      let sites0, binaries0 = build_with [] in
      let ctx0 = Feam_core.Eval_ctx.create () in
      let cells0 = Driftrun.predict_all ~ctx:ctx0 sites0 binaries0 in
      let base =
        Driftrun.snapshot_of_world ~ctx:ctx0 ~epoch:0 ~seed:pseed ~label:"" sites0
          binaries0 ~cells:cells0
      in
      let p =
        Driftrun.draw ~seed:pseed ~epoch:1
          ~site_names:(List.map Feam_sysmodel.Site.name sites0)
          ~candidates:(Driftrun.removal_candidates sites0)
      in
      let sites, binaries = build_with [ p ] in
      let ctx = Feam_core.Eval_ctx.create () in
      let candidate =
        Driftrun.snapshot_of_world ~ctx ~epoch:1 ~seed:pseed
          ~label:(Driftrun.perturbation_label p) sites binaries ~cells:cells0
      in
      let plan = Invalidate.affected base candidate in
      let full = Driftrun.predict_all ~ctx sites binaries in
      let flips = Invalidate.flips ~before:cells0 ~after:full in
      List.for_all
        (fun (f : Invalidate.flip) ->
          List.mem f.Invalidate.fp_cell plan.Invalidate.pl_affected)
        flips)

(* -- the sequence: incremental == full, metrics, strict subsets ---------- *)

let test_sequence_incremental_matches_full () =
  Feam_obs.reset ();
  let specs, benchmarks = Lazy.force small_world in
  let result = Driftrun.run ~specs ~benchmarks ~seed ~epochs:4 () in
  (match result.Driftrun.dr_crosscheck with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cross-check: %s" e);
  (* the baseline's verdict table equals Migrate.run_all's predictions,
     cell for cell, byte for byte *)
  let base = List.hd (Driftrun.snapshots result) in
  let sites, binaries = build_with [] in
  let migrations = Migrate.run_all params sites binaries in
  let full_cells =
    List.map
      (fun (m : Migrate.migration) ->
        {
          Snapshot.cl_binary = m.Migrate.binary.Testset.id;
          cl_target = m.Migrate.target_name;
          cl_basic = m.Migrate.basic_ready;
          cl_basic_reasons = m.Migrate.basic_reasons;
          cl_extended = m.Migrate.extended_ready;
          cl_extended_reasons = m.Migrate.extended_reasons;
          cl_staged = m.Migrate.staged_copies;
        })
      migrations
  in
  Alcotest.(check string)
    "baseline cells equal Migrate.run_all's predictions"
    (Driftrun.cells_doc ~epoch:0 ~seed full_cells)
    (Driftrun.cells_doc ~epoch:0 ~seed base.Snapshot.cells);
  (* and every other matrix walk enumerates exactly run_all's cells, in
     the same order *)
  let pairs =
    List.map
      (fun (m : Migrate.migration) ->
        (m.Migrate.binary.Testset.id, m.Migrate.target_name))
      migrations
  in
  let pair ((b : Testset.binary), target) =
    (b.Testset.id, Feam_sysmodel.Site.name target)
  in
  Alcotest.(check (list (pair string string)))
    "Driftrun.all_cells lists run_all's cells" pairs
    (List.map pair (Driftrun.all_cells sites binaries));
  Alcotest.(check (list (pair string string)))
    "Depot_stats.run plans run_all's cells" pairs
    (List.map
       (fun (c : Depot_stats.cell) ->
         (c.Depot_stats.dc_binary.Testset.id, c.Depot_stats.dc_target))
       (Depot_stats.run sites binaries).Depot_stats.ds_cells);
  Alcotest.(check (list string))
    "Journals.write_cells journals run_all's cells"
    (List.map
       (fun (m : Migrate.migration) ->
         Printf.sprintf "%s__to__%s.journal"
           (Journals.sanitize m.Migrate.binary.Testset.id)
           (Journals.sanitize m.Migrate.target_name))
       migrations)
    (Journals.write_cells ~write:(fun ~name:_ _ -> ()) sites binaries);
  (* some post-baseline epoch re-evaluated strictly fewer cells than the
     matrix, and none re-evaluated more *)
  let post = List.tl (Driftrun.timeline result) in
  Alcotest.(check bool)
    "a single-atom epoch re-evaluates a strict subset" true
    (List.exists
       (fun e -> e.Timeline.te_reevaluated < result.Driftrun.dr_cells_total)
       post);
  List.iter
    (fun e ->
      Alcotest.(check bool) "re-eval never exceeds the matrix" true
        (e.Timeline.te_reevaluated <= result.Driftrun.dr_cells_total))
    post;
  (* the advertised saving is real and the metrics agree with it *)
  Alcotest.(check bool) "incremental work below full re-evaluation" true
    (result.Driftrun.dr_cells_reevaluated < result.Driftrun.dr_cells_full);
  Alcotest.(check (option int))
    "drift.cells_reevaluated counter"
    (Some result.Driftrun.dr_cells_reevaluated)
    (Feam_obs.Metrics.counter_value "drift.cells_reevaluated");
  Alcotest.(check (option int))
    "drift.cells_total counter"
    (Some (result.Driftrun.dr_cells_total * 4))
    (Feam_obs.Metrics.counter_value "drift.cells_total");
  (match List.assoc_opt "drift.epoch" (Feam_obs.Metrics.snapshot ()) with
  | Some { Feam_obs.Metrics.metric = Feam_obs.Metrics.Gauge g; _ } ->
    Alcotest.(check int) "drift.epoch gauge" 4 (int_of_float !g)
  | _ -> Alcotest.fail "drift.epoch gauge not set");
  Feam_obs.reset ()

(* A run keeps one resident world and toggles each draw on it in place.
   Replay the draws with the run's own step ([Driftrun.toggle]) on a
   live world and check, after every epoch, that its sites digest as a
   world rebuilt with the same active set — every file as stored, so a
   symlink restored as a copy of its target shows — that the run's
   snapshot hashes as a cold capture of that rebuilt world under
   [Eval_ctx.reference], with no cache (the drift leg of
   test_reference.ml's oracle; the run must hit every cache), and that
   the run's plan and flips read as the cold reference's
   ([Invalidate.affected] over the rebuilt epochs): the same changes in
   the same order, reaching the same cells.  Both seeds' draws undo a
   library removal and a stale cache. *)
let test_live_world_equals_rebuilt () =
  let specs, benchmarks = Lazy.force small_world in
  List.iter
    (fun (seed, epochs) ->
      let params = { params with Params.seed } in
      Feam_obs.Metrics.reset ();
      let epoch_results =
        Array.of_list
          (Driftrun.run ~specs ~benchmarks ~seed ~epochs ()).Driftrun.dr_epochs
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: the run hits every cache" seed)
        Test_reference.caches (Test_reference.moved ".hit");
      let cold ~label sites binaries k =
        let ctx = Feam_core.Eval_ctx.reference in
        Driftrun.snapshot_of_world ~ctx ~epoch:k ~seed ~label sites binaries
          ~cells:(Driftrun.predict_all ~ctx sites binaries)
      in
      let sites, binaries = Driftrun.build_world params specs benchmarks [] in
      let baseline = cold ~label:"" sites binaries 0 in
      let candidates = Driftrun.removal_candidates sites in
      let site_names = List.map Feam_sysmodel.Site.name sites in
      let undos = ref [] in
      let rec go k active prev =
        if k <= epochs then begin
          let active, label =
            Driftrun.toggle sites active
              (Driftrun.draw ~seed ~epoch:k ~site_names ~candidates)
          in
          if String.starts_with ~prefix:"undo " label then undos := label :: !undos;
          let what = Printf.sprintf "seed %d epoch %d (%s)" seed k label in
          let rsites, rbinaries =
            Driftrun.build_world params specs benchmarks (List.map fst active)
          in
          Alcotest.(check (list string))
            (what ^ ": live sites equal rebuilt sites")
            (Fixtures.site_digest rsites) (Fixtures.site_digest sites);
          let rebuilt = cold ~label rsites rbinaries k in
          let er = epoch_results.(k) in
          Alcotest.(check string)
            (what ^ ": snapshot hash") (Snapshot.hash rebuilt)
            (Snapshot.hash er.Driftrun.er_snapshot);
          let plan_doc plan flips =
            Feam_util.Json.render (Invalidate.to_json plan flips)
          in
          Alcotest.(check string)
            (what ^ ": plan and flips")
            (plan_doc
               (Invalidate.affected prev rebuilt)
               (Invalidate.flips ~before:prev.Snapshot.cells
                  ~after:rebuilt.Snapshot.cells))
            (plan_doc (Option.get er.Driftrun.er_plan) er.Driftrun.er_flips);
          go (k + 1) active rebuilt
        end
      in
      go 1 [] baseline;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d undoes a removal and a stale cache" seed)
        true
        (List.exists (contains ~affix:"remove-lib") !undos
        && List.exists (contains ~affix:"stale-ld-cache") !undos))
    [ (42, 20); (7, 22) ]

(* An epoch changes only the perturbed site, so the run's one pass memo
   reruns at most the source phases of the binaries homed there and
   serves every other binary's bundle on.  The memo keys on the site's
   state, so an epoch reruns them only when it puts the site into a
   state not seen since the site's last file-system change: a removal
   (or its undo) always does, and a loader-cache toggle does unless it
   puts the site back into a state seen since.  A toggle that changes
   nothing at its site (a library it does not have) reruns none: the
   small world's sites share their libraries, so a blacklight/india
   world at seed 11 supplies one, at epoch 1. *)
let test_epoch_reruns_changed_home_only () =
  let misses () =
    Option.value ~default:0
      (Feam_obs.Metrics.counter_value "phases.source_memo.miss")
  in
  let inert = ref 0 and repeated = ref 0 in
  let check_run specs ~seed ~epochs =
    let _, benchmarks = Lazy.force small_world in
    Feam_obs.reset ();
    let marks = ref [] in
    let progress _ = marks := misses () :: !marks in
    let (_ : Driftrun.t) = Driftrun.run ~specs ~benchmarks ~progress ~seed ~epochs () in
    let marks = Array.of_list (List.rev !marks) in
    Feam_obs.reset ();
    let sites, binaries =
      Driftrun.build_world { params with Params.seed } specs benchmarks []
    in
    let candidates = Driftrun.removal_candidates sites in
    let site_names = List.map Feam_sysmodel.Site.name sites in
    (* Per site: its loader-cache flag, whether a stale-cache draw is
       active there, and the flags seen since its last file change (the
       baseline evaluates every binary in the pristine state). *)
    let pristine name =
      Feam_sysmodel.Site.ld_cache_current (Sites.find_by_name sites name)
    in
    let flag = Hashtbl.create 8 and stale = Hashtbl.create 8 in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun name ->
        Hashtbl.replace flag name (pristine name);
        Hashtbl.replace seen name [ pristine name ])
      site_names;
    for k = 1 to epochs do
      let p = Driftrun.draw ~seed ~epoch:k ~site_names ~candidates in
      let name = p.Driftrun.pe_site in
      let site = Sites.find_by_name sites name in
      let new_state =
        match p.Driftrun.pe_what with
        | Scengen.Remove_lib lib ->
          let changes =
            Feam_sysmodel.Vfs.find_by_basename (Feam_sysmodel.Site.vfs site)
              (fun b -> b = lib)
            <> []
          in
          if changes then Hashtbl.replace seen name [ Hashtbl.find flag name ]
          else incr inert;
          changes
        | _ ->
          let active = Hashtbl.mem stale name in
          if active then Hashtbl.remove stale name
          else Hashtbl.replace stale name ();
          let before = Hashtbl.find flag name in
          let after = if active then pristine name else false in
          Hashtbl.replace flag name after;
          let seen_before = List.mem after (Hashtbl.find seen name) in
          if after = before then incr inert
          else if seen_before then incr repeated
          else Hashtbl.replace seen name (after :: Hashtbl.find seen name);
          not seen_before
      in
      let homed =
        List.length
          (List.filter
             (fun (b : Testset.binary) ->
               Feam_sysmodel.Site.name b.Testset.home = name)
             binaries)
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d epoch %d (%s): source-phase misses" seed k
           (Driftrun.perturbation_label p))
        (if new_state then homed else 0)
        (marks.(k) - marks.(k - 1))
    done
  in
  check_run (Driftrun.small_specs ()) ~seed ~epochs:20;
  check_run
    (List.filter
       (fun (sp : Sites.spec) -> List.mem sp.Sites.site_name [ "blacklight"; "india" ])
       Sites.specs)
    ~seed:11 ~epochs:3;
  Alcotest.(check bool) "the draws include an inert toggle" true (!inert > 0);
  Alcotest.(check bool) "the draws include a toggle back to a seen state" true
    (!repeated > 0)

let test_sequence_is_deterministic () =
  let specs, benchmarks = Lazy.force small_world in
  let doc result =
    String.concat ""
      (List.map Snapshot.to_jsonl (Driftrun.snapshots result))
    ^ Timeline.render_history (Driftrun.timeline result)
  in
  let a = doc (Driftrun.run ~specs ~benchmarks ~seed ~epochs:3 ()) in
  let b = doc (Driftrun.run ~specs ~benchmarks ~seed ~epochs:3 ()) in
  Alcotest.(check string) "two identical sequences, identical artifacts" a b

(* -- timeline ------------------------------------------------------------ *)

let entry ?(flips = []) ~epoch ~ready ~total ~reevaluated label =
  {
    Timeline.te_epoch = epoch;
    te_hash = Printf.sprintf "%032x" epoch;
    te_label = label;
    te_cells_total = total;
    te_ready = ready;
    te_rate =
      (if total = 0 then 0.0 else float_of_int ready /. float_of_int total);
    te_reevaluated = reevaluated;
    te_flips = flips;
    te_attribution = [];
  }

let regression cell = { Timeline.fe_cell = cell; fe_before = true; fe_after = false }

let test_timeline_roundtrip () =
  let entries =
    [
      entry ~epoch:0 ~ready:18 ~total:21 ~reevaluated:21 "";
      entry ~epoch:1 ~ready:12 ~total:21 ~reevaluated:9 "remove-lib libx @ s"
        ~flips:[ regression "b1->s"; ];
    ]
  in
  let doc = Timeline.render_history entries in
  match Timeline.parse_history doc with
  | Error e -> Alcotest.failf "timeline round-trip: %s" e
  | Ok reparsed ->
    Alcotest.(check string)
      "render . parse is the identity on bytes" doc
      (Timeline.render_history reparsed);
    (* corrupt histories are typed, line-numbered errors *)
    (match Timeline.parse_history (doc ^ "not json\n") with
    | Ok _ -> Alcotest.fail "garbage line should fail"
    | Error e ->
      Alcotest.(check bool) "error carries the line number" true
        (contains ~affix:"line 3" e));
    match Timeline.parse_history (doc ^ Timeline.render_history [ entry ~epoch:1 ~ready:1 ~total:2 ~reevaluated:1 "dup" ]) with
    | Ok _ -> Alcotest.fail "non-increasing epochs should fail"
    | Error e ->
      Alcotest.(check bool) "error mentions the epoch ordering" true
        (contains ~affix:"epoch" e)

let test_timeline_rules_and_gate () =
  let entries =
    [
      entry ~epoch:0 ~ready:20 ~total:21 ~reevaluated:21 "";
      (* a 40% rate drop plus a regression flip of a watched binary *)
      entry ~epoch:1 ~ready:12 ~total:21 ~reevaluated:10 "remove-lib libx @ s"
        ~flips:[ regression "watched->s"; regression "other->s" ];
      (* recovery: flips back to ready are not regressions; the cell
         uses the homed-variant form so the watch's benchmark-prefix
         match is exercised too *)
      entry ~epoch:2 ~ready:20 ~total:21 ~reevaluated:10 "undo"
        ~flips:
          [
            {
              Timeline.fe_cell = "watched@home/stack->s";
              fe_before = false;
              fe_after = true;
            };
          ];
    ]
  in
  let findings = Timeline.check Timeline.default_rules entries in
  (* default rules: rate-drop 0.30 warn fires at epoch 1; regression
     info fires at epoch 1; nothing at epoch 2 *)
  Alcotest.(check (list int))
    "findings pinned to epoch 1" [ 1; 1 ]
    (List.map (fun f -> f.Timeline.fi_epoch) findings);
  Alcotest.(check (list string))
    "severities" [ "warn"; "info" ]
    (List.map
       (fun f ->
         match f.Timeline.fi_severity with
         | Timeline.Warn -> "warn"
         | Timeline.Info -> "info"
         | Timeline.Error -> "error")
       findings);
  Alcotest.(check (result int string)) "warn findings exit 1" (Ok 1)
    (Timeline.gate ~fail_on:"warn" findings);
  (* the gate mirrors Engine.gate *)
  Alcotest.(check (result int string)) "--fail-on warn gates" (Ok 1)
    (Timeline.gate ~fail_on:"warn" findings);
  Alcotest.(check (result int string)) "--fail-on error passes warns" (Ok 0)
    (Timeline.gate ~fail_on:"error" findings);
  Alcotest.(check (result int string)) "--fail-on never always passes" (Ok 0)
    (Timeline.gate ~fail_on:"never" findings);
  (match Timeline.gate ~fail_on:"loud" findings with
  | Ok _ -> Alcotest.fail "unknown level must be a usage error"
  | Error e ->
    Alcotest.(check bool) "usage error names the level" true
      (contains ~affix:"loud" e));
  (* a watch rule fires on any flip of the named binary, either way *)
  let watch_findings =
    Timeline.check [ Timeline.Watch ("watched", Timeline.Error) ] entries
  in
  Alcotest.(check (list int))
    "watch fires at both flips" [ 1; 2 ]
    (List.map (fun f -> f.Timeline.fi_epoch) watch_findings);
  Alcotest.(check (result int string)) "error findings exit 2" (Ok 2)
    (Timeline.gate ~fail_on:"warn" watch_findings)

let test_timeline_rules_parse () =
  (match
     Timeline.parse_rules
       "# comment\nrate-drop 0.25 warn\nregression info\nwatch NAS/ep.A error\n"
   with
  | Error e -> Alcotest.failf "rules should parse: %s" e
  | Ok rules ->
    Alcotest.(check bool)
      "parsed rules"
      true
      (rules
      = [
          Timeline.Rate_drop (0.25, Timeline.Warn);
          Timeline.Regression Timeline.Info;
          Timeline.Watch ("NAS/ep.A", Timeline.Error);
        ]));
  match Timeline.parse_rules "rate-drop 2.0 warn\n" with
  | Ok _ -> Alcotest.fail "out-of-range threshold should fail"
  | Error e ->
    Alcotest.(check bool) "error carries the line number" true
      (contains ~affix:"line 1" e)

(* A kind no drift epoch applies raises, naming it, and changes no site
   and no active set. *)
let test_toggle_rejects_unsupported_kind () =
  let specs, benchmarks = Lazy.force small_world in
  let sites, _ = Driftrun.build_world params specs benchmarks [] in
  let before = Fixtures.site_digest sites in
  let p =
    {
      Driftrun.pe_site = Feam_sysmodel.Site.name (List.hd sites);
      pe_what = Scengen.Drop_stack;
    }
  in
  Alcotest.check_raises "Drop_stack is refused"
    (Invalid_argument
       ("Driftrun: no drift epoch applies "
       ^ Scengen.perturbation_to_string Scengen.Drop_stack))
    (fun () -> ignore (Driftrun.toggle sites [] p : Driftrun.active * string));
  Alcotest.(check (list string)) "no site changed" before
    (Fixtures.site_digest sites)

let suite =
  ( "drift",
    [
      Alcotest.test_case "double snapshot is byte-identical" `Quick
        test_double_snapshot_byte_identity;
      Alcotest.test_case "snapshot JSONL round-trip" `Quick
        test_snapshot_roundtrip;
      Alcotest.test_case "snapshot parse errors are typed" `Quick
        test_snapshot_parse_errors;
      Alcotest.test_case "epoch store round-trip" `Quick
        test_epoch_store_roundtrip;
      Alcotest.test_case "attribution golden (synthetic fleet)" `Quick
        test_attribution_golden;
      Alcotest.test_case "merge replaces rows by key" `Quick
        test_merge_replaces_by_key;
      Alcotest.test_case "unknown atoms invalidate conservatively" `Quick
        test_unknown_atom_is_conservative;
      QCheck_alcotest.to_alcotest prop_flips_within_affected;
      Alcotest.test_case "incremental verdicts equal a full pass" `Slow
        test_sequence_incremental_matches_full;
      Alcotest.test_case "sequence artifacts are deterministic" `Slow
        test_sequence_is_deterministic;
      Alcotest.test_case "the live world equals a rebuilt world at every epoch"
        `Slow test_live_world_equals_rebuilt;
      Alcotest.test_case "an epoch reruns source phases only at the changed home"
        `Slow test_epoch_reruns_changed_home_only;
      Alcotest.test_case "toggle refuses a kind drift does not apply" `Quick
        test_toggle_rejects_unsupported_kind;
      Alcotest.test_case "timeline history round-trip" `Quick
        test_timeline_roundtrip;
      Alcotest.test_case "alert rules and the exit-code gate" `Quick
        test_timeline_rules_and_gate;
      Alcotest.test_case "alert rules file parsing" `Quick
        test_timeline_rules_parse;
    ] )
