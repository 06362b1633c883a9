(* Depot-backed transfer accounting over the migration matrix: every
   source-phase bundle is interned into one shared content-addressed
   store, and each reported matrix cell gets a transfer plan against the
   per-site possession index — so an object already shipped to a site by
   an earlier migration is never shipped again.  The totals quantify how
   much of the paper's per-cell bundle traffic (§VI.C, ~45 MB of
   libraries per site) is duplicate bytes. *)

open Feam_sysmodel
module Store = Feam_depot.Store
module Planner = Feam_depot.Planner
module Manifest = Feam_core.Bundle_manifest

type cell = {
  dc_binary : Testset.binary;
  dc_target : string;
  dc_wants : Planner.want list;
  dc_plan : Planner.t;
  dc_legacy_bytes : int; (* the self-contained bundle, shipped in full *)
}

type t = {
  ds_store : Store.t;
  ds_cells : cell list;
  ds_skipped : string list; (* binaries whose source phase failed *)
  ds_legacy_total : int;
  ds_shipped_total : int;
  ds_describe_cache : int * int; (* this run's describe-memo hits, misses *)
}

let counter name = Option.value (Feam_obs.Metrics.counter_value name) ~default:0

(* [run sites binaries] — intern every binary's bundle into a
   fresh shared store and plan every reported matrix cell
   ({!Migrate.targets}) against one possession index, in
   deterministic corpus order.  The source phases share one evaluation
   context: the same library image re-described across bundles parses
   once per site.  The describe memo's lookups are this run's own, a
   delta of the process-wide counters. *)
let run sites binaries =
  let hits0 = counter "bdc.describe_cache.hit" in
  let misses0 = counter "bdc.describe_cache.miss" in
  let store = Store.create () in
  let possession = Planner.Possession.create () in
  let ctx = Feam_core.Eval_ctx.create () in
  let skipped = ref [] in
  let cells =
    List.concat_map
      (fun (binary : Testset.binary) ->
        match Migrate.source_bundle ~ctx binary with
        | Error _ ->
          skipped := binary.Testset.id :: !skipped;
          []
        | Ok bundle ->
          let manifest = Manifest.of_bundle store bundle in
          let wants = Manifest.wants manifest in
          let legacy = Planner.legacy_bytes wants in
          Migrate.targets sites binary
          |> List.map (fun target ->
                 let site = Site.name target in
                 let plan =
                   Planner.compute ~site
                     ~possessed:(Planner.Possession.mem possession ~site)
                     wants
                 in
                 Planner.Possession.commit possession plan;
                 {
                   dc_binary = binary;
                   dc_target = site;
                   dc_wants = wants;
                   dc_plan = plan;
                   dc_legacy_bytes = legacy;
                 }))
      binaries
  in
  {
    ds_store = store;
    ds_cells = cells;
    ds_skipped = List.rev !skipped;
    ds_legacy_total = List.fold_left (fun a c -> a + c.dc_legacy_bytes) 0 cells;
    ds_shipped_total =
      List.fold_left (fun a c -> a + c.dc_plan.Planner.shipped_bytes) 0 cells;
    ds_describe_cache =
      ( counter "bdc.describe_cache.hit" - hits0,
        counter "bdc.describe_cache.miss" - misses0 );
  }

(* Legacy bytes over depot bytes: how many times over the per-cell
   bundles would have shipped the same content. *)
let dedup_ratio t =
  if t.ds_shipped_total = 0 then 0.0
  else float_of_int t.ds_legacy_total /. float_of_int t.ds_shipped_total

let saved_percent t =
  if t.ds_legacy_total = 0 then 0.0
  else
    100.0
    *. float_of_int (t.ds_legacy_total - t.ds_shipped_total)
    /. float_of_int t.ds_legacy_total

(* Per-site-pair bytes: (home, target) -> cells, legacy, shipped. *)
let pair_rows t =
  let tbl : (string * string, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let key = (Site.name c.dc_binary.Testset.home, c.dc_target) in
      let n, legacy, shipped =
        Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0, 0)
      in
      Hashtbl.replace tbl key
        ( n + 1,
          legacy + c.dc_legacy_bytes,
          shipped + c.dc_plan.Planner.shipped_bytes ))
    t.ds_cells;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1048576.0)

let pair_table t =
  Feam_util.Table.make ~title:"Bytes shipped per site pair (depot vs legacy)"
    ~aligns:
      Feam_util.Table.[ Left; Left; Right; Right; Right; Right ]
    ~header:[ "home"; "target"; "cells"; "legacy MB"; "depot MB"; "saved" ]
    (List.map
       (fun ((home, target), (n, legacy, shipped)) ->
         [
           home;
           target;
           string_of_int n;
           mb legacy;
           mb shipped;
           Printf.sprintf "%.1f%%"
             (if legacy = 0 then 0.0
              else
                100.0
                *. float_of_int (legacy - shipped)
                /. float_of_int legacy);
         ])
       (pair_rows t))

(* The summary block evaltool prints. *)
let render t =
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "Depot transfer planning (shared store, per-site possession)\n";
  addf "  store: %d objects, %s MB\n"
    (Store.object_count t.ds_store)
    (mb (Store.total_bytes t.ds_store));
  addf "  matrix cells planned: %d%s\n"
    (List.length t.ds_cells)
    (match t.ds_skipped with
    | [] -> ""
    | s -> Printf.sprintf " (%d binaries skipped: no bundle)" (List.length s));
  addf "  legacy bytes (self-contained bundle per cell): %s MB\n"
    (mb t.ds_legacy_total);
  addf "  depot bytes shipped: %s MB\n" (mb t.ds_shipped_total);
  addf "  dedup ratio: %.2fx (%.1f%% of legacy traffic saved)\n"
    (dedup_ratio t) (saved_percent t);
  let hits, misses = t.ds_describe_cache in
  if hits + misses > 0 then
    addf "  describe cache: %d hits / %d misses (%.1f%% hit rate)\n" hits
      misses
      (100.0 *. float_of_int hits /. float_of_int (hits + misses));
  Buffer.add_string buf (Feam_util.Table.render (pair_table t));
  Buffer.contents buf

(* Every cell's plan, rendered in corpus order — the CI determinism
   artifact: two builds of the same matrix must produce this text
   byte-identically. *)
let plans_text t =
  let buf = Buffer.create 65536 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "== %s -> %s\n" c.dc_binary.Testset.id c.dc_target);
      Buffer.add_string buf (Planner.render c.dc_plan))
    t.ds_cells;
  Buffer.contents buf

(* Journal one cell's transfer plan as a replayable flight-recorder
   journal ([feam replay] re-plans from the recorded wants and compares
   renderings byte-for-byte).  The cell with the largest shipped plan is
   chosen — deterministically, ties broken by corpus order. *)
let journal_plan ~write t =
  match t.ds_cells with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left
        (fun acc c ->
          if
            c.dc_plan.Planner.shipped_bytes
            > acc.dc_plan.Planner.shipped_bytes
          then c
          else acc)
        first rest
    in
    let name =
      Printf.sprintf "plan_%s__to__%s.journal"
        (Journals.sanitize best.dc_binary.Testset.id)
        (Journals.sanitize best.dc_target)
    in
    Feam_flightrec.Recorder.with_journal ~tool:"evaltool" ~emit:(write ~name)
      (fun () -> Planner.journal ~wants:best.dc_wants best.dc_plan);
    Some name
