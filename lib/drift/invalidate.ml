(* The invalidation engine: diff two epochs' evidence atoms, map each
   changed atom through the determinant<-evidence dependency map to the
   matrix cells whose verdicts could depend on it, and hand back the
   exact re-evaluation set.

   The dependency map and the atom diff live in [Feam_core.Evidence];
   [plan] is the one reach rule from changes to cells, shared with the
   resident prediction service.  Soundness argument (DESIGN §13): the
   verdict of a cell is a pure function of its binary's atoms and its
   target site's atoms; an atom unknown to the map conservatively
   invalidates every determinant, so a cell outside the affected set
   has byte-identical inputs across the two epochs and therefore a
   byte-identical verdict. *)

module Json = Feam_util.Json
module Evidence = Feam_core.Evidence

type cell_id = { ci_binary : string; ci_target : string }

let cell_id_key c = c.ci_binary ^ "->" ^ c.ci_target

type change = {
  ch_atom : Evidence.change;
  ch_cells : cell_id list;  (* cells this atom invalidates, sorted *)
}

type plan = {
  pl_epoch_a : int;
  pl_epoch_b : int;
  pl_cells_total : int;
  pl_affected : cell_id list;  (* union of ch_cells, sorted, deduped *)
  pl_changes : change list;
}

let compare_cells a b = compare (a.ci_binary, a.ci_target) (b.ci_binary, b.ci_target)

(* -- the reach rule ---------------------------------------------------- *)

(* Cells a changed atom invalidates: site atoms reach the cells
   targeting that site (home-side effects surface as binary atoms — the
   snapshot captures the bundle the home site produces); binary atoms
   reach every cell of that binary; verdict-inert atoms reach nothing. *)
let reach cells (ev : Evidence.change) =
  if ev.Evidence.ev_determinants = [] then []
  else
    List.filter
      (fun (c : Snapshot.cell) ->
        match ev.Evidence.ev_owner with
        | Evidence.Site_owner s -> c.Snapshot.cl_target = s
        | Evidence.Binary_owner b -> c.Snapshot.cl_binary = b)
      cells
    |> List.map (fun (c : Snapshot.cell) ->
           { ci_binary = c.Snapshot.cl_binary; ci_target = c.Snapshot.cl_target })
    |> List.sort_uniq compare_cells

let plan ~epoch_a ~epoch_b cells evs =
  let changes = List.map (fun ev -> { ch_atom = ev; ch_cells = reach cells ev }) evs in
  {
    pl_epoch_a = epoch_a;
    pl_epoch_b = epoch_b;
    pl_cells_total = List.length cells;
    pl_affected =
      List.concat_map (fun c -> c.ch_cells) changes |> List.sort_uniq compare_cells;
    pl_changes = changes;
  }

(* Owners in [compare_owner] order, each owner's atoms diffed by path:
   the changes come out in (owner, path) order. *)
let affected (a : Snapshot.t) (b : Snapshot.t) =
  let atoms_a = Snapshot.evidence_atoms a and atoms_b = Snapshot.evidence_atoms b in
  let atoms_of atoms owner = Option.value ~default:[] (List.assoc_opt owner atoms) in
  let owners =
    List.sort_uniq Evidence.compare_owner (List.map fst atoms_a @ List.map fst atoms_b)
  in
  plan ~epoch_a:a.Snapshot.epoch ~epoch_b:b.Snapshot.epoch a.Snapshot.cells
    (List.concat_map
       (fun o -> Evidence.diff o (atoms_of atoms_a o) (atoms_of atoms_b o))
       owners)

(* -- merging and flip accounting --------------------------------------- *)

(* The incremental verdict table: re-evaluated cells replace their
   epoch-A rows; everything else carries forward untouched. *)
let merge ~base ~reevaluated =
  let fresh = Hashtbl.create 64 in
  List.iter
    (fun (c : Snapshot.cell) ->
      Hashtbl.replace fresh (c.Snapshot.cl_binary, c.Snapshot.cl_target) c)
    reevaluated;
  List.map
    (fun (c : Snapshot.cell) ->
      match Hashtbl.find_opt fresh (c.Snapshot.cl_binary, c.Snapshot.cl_target) with
      | Some c' -> c'
      | None -> c)
    base

type flip = { fp_cell : cell_id; fp_before : bool; fp_after : bool }

(* Extended-verdict flips between two verdict tables, by cell key. *)
let flips ~before ~after =
  let old = Hashtbl.create 64 in
  List.iter
    (fun (c : Snapshot.cell) ->
      Hashtbl.replace old
        (c.Snapshot.cl_binary, c.Snapshot.cl_target)
        c.Snapshot.cl_extended)
    before;
  List.filter_map
    (fun (c : Snapshot.cell) ->
      match Hashtbl.find_opt old (c.Snapshot.cl_binary, c.Snapshot.cl_target) with
      | Some was when was <> c.Snapshot.cl_extended ->
        Some
          {
            fp_cell =
              {
                ci_binary = c.Snapshot.cl_binary;
                ci_target = c.Snapshot.cl_target;
              };
            fp_before = was;
            fp_after = c.Snapshot.cl_extended;
          }
      | _ -> None)
    after
  |> List.sort (fun a b -> compare_cells a.fp_cell b.fp_cell)

(* Per-change attribution: which of a changed atom's invalidated cells
   actually flipped, and in which direction. *)
type attribution = {
  at_change : change;
  at_to_ready : int;
  at_to_not_ready : int;
}

let attribute plan flips =
  let flipped = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace flipped (f.fp_cell.ci_binary, f.fp_cell.ci_target) f.fp_after)
    flips;
  List.map
    (fun ch ->
      let to_ready, to_not_ready =
        List.fold_left
          (fun (r, n) c ->
            match Hashtbl.find_opt flipped (c.ci_binary, c.ci_target) with
            | Some true -> (r + 1, n)
            | Some false -> (r, n + 1)
            | None -> (r, n))
          (0, 0) ch.ch_cells
      in
      { at_change = ch; at_to_ready = to_ready; at_to_not_ready = to_not_ready })
    plan.pl_changes

(* -- metrics ----------------------------------------------------------- *)

(* ROADMAP item 1's cells-reevaluated-per-change metric, plus the fleet
   gauges the Prometheus expo surfaces as feam_drift_*. *)
let record_metrics plan =
  Feam_obs.Metrics.incr "drift.cells_reevaluated"
    ~by:(List.length plan.pl_affected);
  Feam_obs.Metrics.incr "drift.cells_total" ~by:plan.pl_cells_total

let record_epoch_gauges (s : Snapshot.t) =
  Feam_obs.Metrics.set_gauge "drift.epoch" (float_of_int s.Snapshot.epoch);
  Feam_obs.Metrics.set_gauge "drift.ready_cells"
    (float_of_int (Snapshot.ready_cells s));
  Feam_obs.Metrics.set_gauge "drift.readiness_rate" (Snapshot.readiness_rate s)

(* -- rendering --------------------------------------------------------- *)

let side = function None -> "(absent)" | Some v -> v

let render_change_line at =
  let ch = at.at_change in
  let ev = ch.ch_atom in
  Printf.sprintf "  %s %s: %s -> %s [%s] invalidates %d cell%s%s\n"
    (Snapshot.owner_to_string ev.Evidence.ev_owner)
    ev.Evidence.ev_path (side ev.Evidence.ev_before) (side ev.Evidence.ev_after)
    (String.concat "," ev.Evidence.ev_determinants)
    (List.length ch.ch_cells)
    (if List.length ch.ch_cells = 1 then "" else "s")
    (if at.at_to_ready + at.at_to_not_ready = 0 then ""
     else
       Printf.sprintf ", flipped %d not-ready->ready, %d ready->not-ready"
         at.at_to_ready at.at_to_not_ready)

let render_text plan flips =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "epoch diff %d -> %d: %d changed atom%s, %d of %d cells invalidated\n"
       plan.pl_epoch_a plan.pl_epoch_b
       (List.length plan.pl_changes)
       (if List.length plan.pl_changes = 1 then "" else "s")
       (List.length plan.pl_affected)
       plan.pl_cells_total);
  List.iter
    (fun at -> Buffer.add_string buf (render_change_line at))
    (attribute plan flips);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  cell %s: %s -> %s  [FLIPPED]\n" (cell_id_key f.fp_cell)
           (if f.fp_before then "ready" else "not-ready")
           (if f.fp_after then "ready" else "not-ready")))
    flips;
  Buffer.contents buf

let opt_str = function None -> Json.Null | Some v -> Json.Str v

let to_json plan flips =
  Json.Obj
    [
      ("epoch_a", Json.Int plan.pl_epoch_a);
      ("epoch_b", Json.Int plan.pl_epoch_b);
      ("cells_total", Json.Int plan.pl_cells_total);
      ("cells_affected", Json.Int (List.length plan.pl_affected));
      ( "changes",
        Json.List
          (List.map
             (fun at ->
               let ev = at.at_change.ch_atom in
               Json.Obj
                 [
                   ("owner", Json.Str (Snapshot.owner_to_string ev.Evidence.ev_owner));
                   ("path", Json.Str ev.Evidence.ev_path);
                   ("a", opt_str ev.Evidence.ev_before);
                   ("b", opt_str ev.Evidence.ev_after);
                   ( "determinants",
                     Json.List
                       (List.map (fun d -> Json.Str d) ev.Evidence.ev_determinants) );
                   ("cells", Json.Int (List.length at.at_change.ch_cells));
                   ("to_ready", Json.Int at.at_to_ready);
                   ("to_not_ready", Json.Int at.at_to_not_ready);
                 ])
             (attribute plan flips)) );
      ( "flips",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("cell", Json.Str (cell_id_key f.fp_cell));
                   ("before", Json.Bool f.fp_before);
                   ("after", Json.Bool f.fp_after);
                 ])
             flips) );
    ]
