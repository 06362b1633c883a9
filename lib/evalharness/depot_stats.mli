(** Depot-backed transfer accounting over the migration matrix: one
    shared content-addressed store for every source-phase bundle, one
    transfer plan per reported cell against a per-site possession index.
    Quantifies how much of the legacy per-cell bundle traffic is
    duplicate bytes. *)

type cell = {
  dc_binary : Testset.binary;
  dc_target : string;
  dc_wants : Feam_depot.Planner.want list;
  dc_plan : Feam_depot.Planner.t;
  dc_legacy_bytes : int;
      (** the self-contained bundle for this cell, shipped in full *)
}

type t = {
  ds_store : Feam_depot.Store.t;
  ds_cells : cell list;
  ds_skipped : string list;  (** binaries whose source phase failed *)
  ds_legacy_total : int;
  ds_shipped_total : int;
}

(** Intern every binary's bundle into a fresh shared store and plan
    every reported matrix cell (same cell filter as
    {!Migrate.run_all}) in deterministic corpus order.  Enables the
    {!Feam_core.Bdc} describe memo for the duration of the run. *)
val run :
  ?clock:Feam_util.Sim_clock.t ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  t

(** The summary block evaltool prints: store size, totals, dedup ratio,
    describe-cache hit rate, per-pair table. *)
val render : t -> string

(** Every cell's plan rendered in corpus order — byte-identical across
    builds of the same matrix (the CI determinism artifact). *)
val plans_text : t -> string

(** Journal the largest cell's transfer plan as a replayable journal via
    the injected writer; returns the name written (None on an empty
    matrix). *)
val journal_plan : write:(name:string -> string -> unit) -> t -> string option
