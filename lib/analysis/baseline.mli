(** Audit baselines: a suppression file of known findings so an audit
    gate only trips on *new* problems.  An entry is a (rule id, subject)
    pair — the stable coordinates of a finding; messages and levels are
    deliberately not part of the key so rewording a rule does not
    un-suppress its known findings.

    Wire format (DESIGN §12): a [FEAM-BASELINE 1] header line, then one
    [<rule-id>\t<subject>] line per entry, sorted, [#]-comments and
    blank lines ignored.  {!render} is byte-deterministic, so baselines
    round-trip and diff cleanly under version control. *)

type t

val empty : t

(** A baseline covering exactly [findings]. *)
val of_findings : Feam_core.Diagnose.finding list -> t

(** Split findings into (new, suppressed) against the baseline. *)
val apply :
  t ->
  Feam_core.Diagnose.finding list ->
  Feam_core.Diagnose.finding list * Feam_core.Diagnose.finding list

val render : t -> string

(** Parse {!render}'s format; [Error] names the offending line. *)
val parse : string -> (t, string) result
