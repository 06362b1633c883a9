(** The differential agreement harness: runs all four predictors —
    library-level TEC determinants, the lint rule set, symcheck's ld.so
    binding simulation, and the dynamic-linker ground-truth oracle —
    over generated scenarios through one shared BDC/EDC description
    pass, normalizes their verdicts into the {!Verdict} lattice, and
    scores every predictor against the oracle. *)

(** One scenario's four verdicts. *)
type run = {
  r_scenario : Feam_evalharness.Scengen.t;
  r_tec : Verdict.t;
  r_lint : Verdict.t;
  r_sym : Verdict.t;
  r_oracle : Verdict.t;
  r_failure : Feam_dynlinker.Exec.failure option;
      (** the oracle's failure, when it failed *)
  r_unsound : Verdict.predictor list;
      (** predictors strictly ready although the oracle failed inside
          their claimed territory *)
  r_findings : Feam_core.Diagnose.finding list;
      (** the lint findings behind [r_lint], kept for per-rule severity
          calibration *)
}

val verdict_of : run -> Verdict.predictor -> Verdict.t

(** Any two of the four disagree on acceptance. *)
val disagrees : run -> bool

(** Run the four predictors over one built scenario, under the
    corpus's evaluation context [ctx] when given.  When the flight
    recorder is enabled, journals the scenario payload and the four
    verdict decisions. *)
val run_one : ?ctx:Feam_core.Eval_ctx.t -> Feam_evalharness.Scengen.t -> run

(** Build and run scenarios [0 .. count-1] of [seed].  Counts surface
    as [agree.scenarios] / [agree.disagreements] / [agree.unsound]. *)
val run_corpus : seed:int -> count:int -> unit -> run list

(** Rebuild and rerun one scenario identified by (seed, index, keep). *)
val rerun : seed:int -> index:int -> keep:int list -> run

(** Precision/recall/accuracy of each predictor against the oracle,
    plus its overturn rate of TEC acceptances and its unsound count. *)
val score_table : run list -> Feam_util.Table.t

(** Pairwise acceptance-agreement matrix over the four sources. *)
val pairwise_table : run list -> Feam_util.Table.t

(** Verdict-pattern breakdown of the scenarios where sources disagree. *)
val disagreement_table : run list -> Feam_util.Table.t

(** The full rendered report: summary line, the three tables, and the
    unsound-scenario list.  Byte-identical across runs for equal
    corpora — the determinism contract journals and CI rely on. *)
val render_report : run list -> string

(** Journal the corpus report payload (after the per-run records
    {!run_one} emitted); a no-op when the recorder is disabled. *)
val record_report : run list -> unit
