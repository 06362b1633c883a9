(** The invalidation engine: diff two epoch snapshots' evidence atoms
    and map each changed atom through the determinant<-evidence
    dependency map (read off [Tec.decide]'s per-determinant evidence
    records) to the exact set of matrix cells needing re-evaluation. *)

type cell_id = { ci_binary : string; ci_target : string }

(** "binary->target". *)
val cell_id_key : cell_id -> string

type change = {
  ch_atom : Feam_core.Evidence.change;
  ch_cells : cell_id list;  (** cells this atom invalidates, sorted *)
}

type plan = {
  pl_epoch_a : int;
  pl_epoch_b : int;
  pl_cells_total : int;
  pl_affected : cell_id list;  (** union of [ch_cells], sorted, deduped *)
  pl_changes : change list;
}

(** The one reach rule, shared by drift and the resident prediction
    service: each change reaches the [cells] of its owner — the cells
    targeting a site, or every cell of a binary — unless it feeds no
    determinant. *)
val plan :
  epoch_a:int ->
  epoch_b:int ->
  Snapshot.cell list ->
  Feam_core.Evidence.change list ->
  plan

(** Diff the evidence atoms of two epochs ([Feam_core.Evidence.diff],
    owner by owner) and [plan] the changes over the base epoch's
    cells.  Changes come out in (owner, path) order.  The cold
    reference for the resident world's recapture
    ([Feam_evalharness.Driftrun.World]), and what [feam drift diff]
    runs. *)
val affected : Snapshot.t -> Snapshot.t -> plan

(** Incremental verdict table: re-evaluated cells replace their rows in
    [base]; untouched cells carry forward. *)
val merge :
  base:Snapshot.cell list ->
  reevaluated:Snapshot.cell list ->
  Snapshot.cell list

type flip = { fp_cell : cell_id; fp_before : bool; fp_after : bool }

(** Extended-verdict flips between two verdict tables, sorted by cell. *)
val flips : before:Snapshot.cell list -> after:Snapshot.cell list -> flip list

type attribution = {
  at_change : change;
  at_to_ready : int;
  at_to_not_ready : int;
}

(** Per-change attribution: how many of each changed atom's invalidated
    cells flipped, and in which direction. *)
val attribute : plan -> flip list -> attribution list

(** Bump [drift.cells_reevaluated] / [drift.cells_total] counters. *)
val record_metrics : plan -> unit

(** Set the [drift.epoch] / [drift.ready_cells] /
    [drift.readiness_rate] gauges from a snapshot. *)
val record_epoch_gauges : Snapshot.t -> unit

val render_text : plan -> flip list -> string

val to_json : plan -> flip list -> Feam_util.Json.t
