(** The seeded drift sequence: replay fleet change as numbered epochs
    over the migration matrix, snapshotting evidence per epoch and
    re-evaluating only the cells the invalidation engine marks
    affected.  Byte-deterministic for a given (seed, epochs, world). *)

type perturbation = {
  pe_site : string;
  pe_what : Scengen.perturbation;  (** [Remove_lib] or [Stale_ld_cache] *)
}

val perturbation_label : perturbation -> string

type epoch_result = {
  er_snapshot : Feam_drift.Snapshot.t;
  er_label : string;  (** the toggle applied; [""] at baseline *)
  er_plan : Feam_drift.Invalidate.plan option;  (** [None] at baseline *)
  er_flips : Feam_drift.Invalidate.flip list;
  er_entry : Feam_drift.Timeline.entry;
}

type t = {
  dr_seed : int;
  dr_epochs : epoch_result list;  (** baseline first *)
  dr_cells_total : int;
  dr_cells_reevaluated : int;  (** post-baseline incremental work *)
  dr_cells_full : int;  (** what full re-evaluation would have cost *)
  dr_crosscheck : (unit, string) result;
      (** {!crosscheck} of the final snapshot against {!build_world}
          with the final active set *)
}

(** Replay a drift sequence.  [specs]/[benchmarks] default to the full
    Table II fleet and NPB+SPEC corpus; tests and benches pass reduced
    worlds.  The run builds its world once and keeps it resident
    ({!World}): each epoch applies its draw to the live sites ({!toggle}),
    recaptures the drawn site and the binaries homed there
    ({!World.recapture}), re-evaluates what the changes reach
    ({!World.step}) and snapshots the resident captures
    ({!World.snapshot}).  Only the closing {!crosscheck} captures a
    whole world. *)
val run :
  ?specs:Sites.spec list ->
  ?benchmarks:Feam_suites.Benchmark.t list ->
  ?progress:(string -> unit) ->
  seed:int ->
  epochs:int ->
  unit ->
  t

(** The sequence's building blocks, exposed so tests and benches can
    replay single epochs without running a whole sequence. *)

(** Loader-visible library basenames a [Remove_lib] draw may target
    (loader and libc excluded), from a pristine world. *)
val removal_candidates : Feam_sysmodel.Site.t list -> string list

(** The keyed PRNG draw for epoch [epoch] ("drift/epoch/<k>" stream). *)
val draw :
  seed:int ->
  epoch:int ->
  site_names:string list ->
  candidates:string list ->
  perturbation

(** The active perturbations of a live world, in the order applied,
    each with the function that undoes it exactly. *)
type active = (perturbation * (unit -> unit)) list

(** [toggle sites active p] applies [p] to the live [sites], or, when
    [p] is already active, undoes it: a removed library's files come
    back as they were stored, a stale cache gets back the flag it had
    before.  Returns the new active set and the epoch's label
    ([perturbation_label], prefixed with ["undo "] for an undo).
    @raise Invalid_argument naming any other kind than {!draw} emits. *)
val toggle : Feam_sysmodel.Site.t list -> active -> perturbation -> active * string

(** Fresh world (specs + testset, compiled before perturbations) with
    the active perturbation set applied on top. *)
val build_world :
  Params.t ->
  Sites.spec list ->
  Feam_suites.Benchmark.t list ->
  perturbation list ->
  Feam_sysmodel.Site.t list * Testset.binary list

(** Remove every file of the site whose basename is the given name,
    symlinks included, and return each path with the file as it was
    stored ({!Feam_sysmodel.Vfs.entry}), so the removal can be undone
    exactly: the [Remove_lib] perturbation of drift and of
    [feam serve]'s [update-evidence]. *)
val remove_lib :
  Feam_sysmodel.Site.t -> string -> (string * Feam_sysmodel.Vfs.file) list

(** The matrix: {!Migrate.cells}, the cell criterion every harness
    shares. *)
val all_cells :
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  (Testset.binary * Feam_sysmodel.Site.t) list

(** Prediction-only evaluation of one cell: {!Migrate.with_staged},
    {!Migrate.basic_prediction} and {!Migrate.extended_prediction} —
    the steps {!Migrate.migrate} runs, without its two ground-truth
    executions.  The target is cleaned afterwards, also on an
    exception.  [ctx] is the pass's context; without one nothing is
    cached. *)
val predict_cell :
  ?ctx:Feam_core.Eval_ctx.t ->
  Testset.binary ->
  Feam_sysmodel.Site.t ->
  Feam_drift.Snapshot.cell

(** A full prediction pass: {!predict_cell} over {!all_cells}, in
    matrix order, under [ctx] (default: a fresh {!Feam_core.Eval_ctx}).
    A context's pass memo serves one world, across changes to its
    sites (it keeps entries per site state), as {!run} and a serve
    engine keep one; a caller that rebuilds the world creates a new
    context for it. *)
val predict_all :
  ?ctx:Feam_core.Eval_ctx.t ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  Feam_drift.Snapshot.cell list

(** Re-evaluate the cells a plan reached ([Invalidate.plan]'s
    [pl_affected]) with {!predict_cell}, in the order given — the one
    re-evaluation step drift, [feam serve] and the benches share.  The
    cells share [ctx], as for {!predict_all}. *)
val reevaluate :
  ?ctx:Feam_core.Eval_ctx.t ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  Feam_drift.Invalidate.cell_id list ->
  Feam_drift.Snapshot.cell list

(** Capture a world as a normalized epoch snapshot around an
    already-computed verdict table: each site's discovery and library
    inventory, each binary's description and bundle digests, with the
    discoveries and source phases under [ctx].  The cold reference: {!World.snapshot}
    assembles the same document from resident captures. *)
val snapshot_of_world :
  ?ctx:Feam_core.Eval_ctx.t ->
  epoch:int ->
  seed:int ->
  label:string ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  cells:Feam_drift.Snapshot.cell list ->
  Feam_drift.Snapshot.t

(** The resident world drift and [feam serve] keep between changes:
    the sites, the binaries, each owner's last capture (as
    {!snapshot_of_world} captures it) and the verdict table, under
    one {!Feam_core.Eval_ctx} for the world's lifetime.  The sites are
    the caller's, changed in place; the world learns of a change only
    through {!recapture}. *)
module World : sig
  type t

  (** The baseline: {!predict_all} and a capture of every owner. *)
  val create : Feam_sysmodel.Site.t list -> Testset.binary list -> t

  val sites : t -> Feam_sysmodel.Site.t list

  val binaries : t -> Testset.binary list

  (** The verdict table, in matrix order. *)
  val cells : t -> Feam_drift.Snapshot.cell list

  (** Recapture the named site and the binaries homed there, replacing
      their resident captures; returns the atom changes
      ({!Feam_core.Evidence.diff}) in (owner, path) order, as
      {!Feam_drift.Invalidate.affected} lists them. *)
  val recapture : t -> string -> Feam_core.Evidence.change list

  (** The one incremental step: {!Feam_drift.Invalidate.plan} over the
      resident table, {!reevaluate} of the reached cells and
      {!Feam_drift.Invalidate.merge}; returns the plan and the flips. *)
  val step :
    t ->
    epoch_a:int ->
    epoch_b:int ->
    Feam_core.Evidence.change list ->
    Feam_drift.Invalidate.plan * Feam_drift.Invalidate.flip list

  (** Registration: append new sites and binaries, capture them and
      evaluate only the matrix pairs they create, keeping the table in
      matrix order.  Returns how many cells were evaluated. *)
  val extend : t -> Feam_sysmodel.Site.t list -> Testset.binary list -> int

  (** The world as an epoch snapshot, assembled from the resident
      captures: nothing is recaptured. *)
  val snapshot : t -> epoch:int -> seed:int -> label:string -> Feam_drift.Snapshot.t
end

(** The one check on resident evidence and verdicts: [crosscheck live
    sites binaries] compares [live]'s {!Feam_drift.Snapshot.to_jsonl}
    with a cold {!snapshot_of_world} and a full {!predict_all} of
    [sites] and [binaries] under a fresh context, at [live]'s epoch,
    seed and label.  The error names whether the verdicts or only the
    evidence diverge. *)
val crosscheck :
  Feam_drift.Snapshot.t ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  (unit, string) result

(** Serialize just a verdict table, for byte-level comparison between
    incremental and full re-evaluation. *)
val cells_doc : epoch:int -> seed:int -> Feam_drift.Snapshot.cell list -> string

val timeline : t -> Feam_drift.Timeline.entry list

val snapshots : t -> Feam_drift.Snapshot.t list

(** The reduced two-site, two-benchmark world shared by tests, benches,
    and quick CLI runs. *)
val small_specs : unit -> Sites.spec list

val small_benchmarks : unit -> Feam_suites.Benchmark.t list
