(** Remediation guidance: turns a prediction's determinant record into
    concrete next steps, split by who can act (the scientist, the site
    administrators, or only a rebuild) — the paper's §IV observation
    about which determinants are fixable made actionable. *)

(** {1 Static-analysis findings}

    The structured diagnostic emitted by the [feam lint] analysis layer
    ([lib/analysis]).  Declared here so reports can carry findings and
    remediation can consume them without a dependency on the analysis
    library itself. *)

type level = Error | Warn | Info

type finding = {
  rule_id : string;
  level : level;
  subject : string;  (** the object or name the finding is about *)
  message : string;
  fixit : string option;  (** a concrete suggested fix, when one exists *)
}

val level_to_string : level -> string

(** Inverse of {!level_to_string} (journal replay). *)
val level_of_string : string -> level option

(** Error < Warn < Info. *)
val level_rank : level -> int

(** Severe first, then rule id, then subject. *)
val compare_finding : finding -> finding -> int

(** Render remediation guidance as report text. *)
val render : Predict.t -> string
