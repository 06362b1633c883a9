(** The common verdict lattice the agreement harness normalizes every
    predictor into: ready / degraded / not-ready, with per-determinant
    attribution.

    Two acceptance notions matter.  For scoring against the oracle a
    predictor {e accepts} when it is not outright not-ready (degraded
    still lets the migration proceed).  For soundness a predictor is
    only on the hook when it is {e strictly ready}: it vouched for the
    scenario with no reservation, and the oracle then failed inside the
    predictor's claimed territory. *)

type level = Ready | Degraded | Not_ready

val level_to_string : level -> string

(** One reason a verdict is below [Ready]: the determinant or rule that
    fired, and a short detail. *)
type attribution = { at_source : string; at_detail : string }

type t = { v_level : level; v_attribution : attribution list }

(** Not outright rejected (ready or degraded). *)
val accepts : t -> bool

(** Ready with no reservation — the soundness hook. *)
val strictly_ready : t -> bool

(** The four verdict sources under comparison. *)
type predictor = Tec | Lint | Symcheck | Oracle

val predictors : predictor list
val predictor_name : predictor -> string
val predictor_of_name : string -> predictor option

(** Library-level TEC determinants -> lattice. *)
val of_predict : Feam_core.Predict.t -> t

(** Lint findings -> lattice: errors reject, warnings degrade. *)
val of_findings : Feam_core.Diagnose.finding list -> t

(** Symbol-closure result -> lattice: definitive strong misses reject;
    weak misses, interposition or an incomplete scope degrade. *)
val of_symcheck : Feam_symcheck.Symcheck.t -> t

(** Ground-truth outcome -> lattice (never [Degraded]). *)
val of_outcome : Feam_dynlinker.Exec.outcome -> t

(** Stable kebab-case class of an oracle failure ("missing-libraries",
    "unsatisfied-versions", ...). *)
val failure_class : Feam_dynlinker.Exec.failure -> string

(** Does the predictor claim to detect this failure class?  A strictly
    ready verdict against an oracle failure outside the predictor's
    claims is out-of-scope, not unsound. *)
val claims : predictor -> Feam_dynlinker.Exec.failure -> bool
