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
      (** byte-identity of the final snapshot ({!Feam_drift.Snapshot.to_jsonl}:
          sites, binaries, possession and the incrementally maintained
          cells) against a cold {!snapshot_of_world} and a full
          {!predict_all} of {!build_world} with the final active set,
          under a fresh context *)
}

(** Replay a drift sequence.  [specs]/[benchmarks] default to the full
    Table II fleet and NPB+SPEC corpus; tests and benches pass reduced
    worlds.  The run builds its world once and keeps one
    {!Feam_core.Eval_ctx} for its whole length: each epoch applies its
    draw to the live sites, or undoes it exactly when the draw toggles
    an active perturbation off, so the change touches only that site's
    state and the pass memo serves the other sites on. *)
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
    ([perturbation_label], prefixed with ["undo "] for an undo). *)
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

(** Capture one site's evidence (discovery + loader-visible library
    inventory) as a snapshot site record. *)
val capture_site : Feam_sysmodel.Site.t -> Feam_drift.Snapshot.site_state

(** Capture one binary's evidence (description + bundle digests) as a
    snapshot binary record; the source phase runs under [ctx]. *)
val capture_binary :
  ?ctx:Feam_core.Eval_ctx.t -> Testset.binary -> Feam_drift.Snapshot.binary_state

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
    already-computed verdict table; {!capture_binary} runs under
    [ctx]. *)
val snapshot_of_world :
  ?ctx:Feam_core.Eval_ctx.t ->
  epoch:int ->
  seed:int ->
  label:string ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  cells:Feam_drift.Snapshot.cell list ->
  Feam_drift.Snapshot.t

(** Serialize just a verdict table, for byte-level comparison between
    incremental and full re-evaluation. *)
val cells_doc : epoch:int -> seed:int -> Feam_drift.Snapshot.cell list -> string

val timeline : t -> Feam_drift.Timeline.entry list

val snapshots : t -> Feam_drift.Snapshot.t list

(** The reduced two-site, two-benchmark world shared by tests, benches,
    and quick CLI runs. *)
val small_specs : unit -> Sites.spec list

val small_benchmarks : unit -> Feam_suites.Benchmark.t list
