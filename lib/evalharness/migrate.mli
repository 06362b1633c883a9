(** The migration experiment (paper §VI.B): every test binary is migrated
    to every other site offering a matching MPI implementation — only
    those migrations are reported, as in the paper.

    Each migration records the basic prediction (target phase only), the
    extended prediction (both phases), and the ground-truth executions
    before resolution (matching stack, no library fixes — Table IV
    "before") and after resolution (FEAM's configuration — "after").
    Table III scores basic against the before-run and extended against
    the after-run, the executions each mode configures. *)

type migration = {
  binary : Testset.binary;
  target_name : string;
  basic_ready : bool;
  basic_reasons : string list;
  extended_ready : bool;
  extended_reasons : string list;
  staged_copies : string list;
  actual_before : Feam_dynlinker.Exec.outcome;
  actual_after : Feam_dynlinker.Exec.outcome;
}

val success : Feam_dynlinker.Exec.outcome -> bool
val basic_correct : migration -> bool
val extended_correct : migration -> bool

(** The stack a knowledgeable user selects by hand: matching MPI
    implementation, preferring the build compiler family. *)
val user_stack_choice :
  Testset.binary -> Feam_sysmodel.Site.t -> Feam_sysmodel.Stack_install.t option

val has_matching_impl : Testset.binary -> Feam_sysmodel.Site.t -> bool

(** {1 The matrix cell}

    One cell is a (binary, target site) pair.  Every harness that walks
    the matrix — drift, serve, journals, depot, audit, timing, symbol
    impact — enumerates cells and runs their steps through the names
    below, so each decision is made in one place. *)

(** The cell criterion: every site other than the binary's home that
    offers a matching MPI implementation, in site order. *)
val targets :
  Feam_sysmodel.Site.t list -> Testset.binary -> Feam_sysmodel.Site.t list

(** Every cell of a corpus, binary-major, in corpus then site order. *)
val cells :
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  (Testset.binary * Feam_sysmodel.Site.t) list

(** Where a migrated binary is staged at the target. *)
val migrated_dir : string

(** [with_staged binary target f] stages [binary] under [migrated_dir]
    and runs [f] on the staged path, in one {!Feam_sysmodel.Vfs.scoped}
    scope of the target's file system: it leaves the target as it found
    it, also when [f] raises. *)
val with_staged :
  Testset.binary -> Feam_sysmodel.Site.t -> (string -> 'a) -> 'a

(** The source phase at the binary's home site under its build stack.
    [ctx] is the evaluation pass's context, as for every step below. *)
val source_bundle :
  ?ctx:Feam_core.Eval_ctx.t ->
  Testset.binary ->
  (Feam_core.Bundle.t, string) result

(** One prediction, reduced to what the matrix records. *)
type verdict = {
  ready : bool;
  reasons : string list;
  staged : string list;  (** libraries resolved from the bundle *)
  stack : string option;
      (** the stack the prediction selected, which ground truth runs on *)
}

(** Basic prediction of the staged binary: the target phase without a
    bundle, in its own scope, so it leaves the target as it found it. *)
val basic_prediction :
  ?ctx:Feam_core.Eval_ctx.t ->
  Feam_sysmodel.Site.t ->
  string ->
  verdict

(** Extended prediction of the staged binary: {!source_bundle}, passed
    through [bundle_filter], then the target phase with the bundle. *)
val extended_prediction :
  ?ctx:Feam_core.Eval_ctx.t ->
  ?bundle_filter:(Feam_core.Bundle.t -> Feam_core.Bundle.t) ->
  Testset.binary ->
  Feam_sysmodel.Site.t ->
  string ->
  verdict

(** Run one migration: {!with_staged}, {!basic_prediction}, the
    before-resolution run, {!extended_prediction}, the after-resolution
    run.  [bundle_filter] transforms the source-phase bundle before the
    extended target phase — the ablation study's hook. *)
val migrate :
  ?ctx:Feam_core.Eval_ctx.t ->
  ?bundle_filter:(Feam_core.Bundle.t -> Feam_core.Bundle.t) ->
  Params.t ->
  Testset.binary ->
  Feam_sysmodel.Site.t ->
  migration

(** All migrations of a corpus, one per {!cells} entry, as one
    evaluation pass: the cells share one {!Feam_core.Eval_ctx}, so each
    distinct MPI-stack determinant input is probed once and each library
    image is described once per site.  The result, the charges to the
    clocks in scope, the world's build serial and every counter outside
    the cache families are those of {!migrate} run cell by cell under
    {!Feam_core.Eval_ctx.reference}, with no cache. *)
val run_all :
  ?bundle_filter:(Feam_core.Bundle.t -> Feam_core.Bundle.t) ->
  Params.t ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  migration list

val of_suite : Feam_suites.Benchmark.suite -> migration list -> migration list
