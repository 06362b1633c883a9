(** The user-facing output of a target phase (paper §V.C): the
    prediction, the reasons when execution is deemed impossible, and —
    when the site is predicted ready — the matching configuration details
    plus a script that sets them up automatically on execution. *)

type t = {
  site_name : string;
  binary : string;
  prediction : Predict.t;
  setup_script : string option;  (** present when predicted ready *)
  findings : Diagnose.finding list;
      (** static-analysis findings attached by the lint layer ([feam
          lint] / [feam predict --lint]), severe first *)
}

val prediction : t -> Predict.t

(** Attach (replace) the static-analysis findings of a report. *)
val with_findings : t -> Diagnose.finding list -> t

val make :
  ?findings:Diagnose.finding list ->
  site_name:string ->
  binary:string ->
  Predict.t ->
  t

(** JSON form of one lint finding (shared with [feam lint] output). *)
val finding_to_json : Diagnose.finding -> Feam_util.Json.t

(** Machine-readable form of the report (extension: tooling output). *)
val to_json : t -> Feam_util.Json.t

(** Render the full human-readable report. *)
val render : t -> string

(** Journal the finished report to the flight recorder: the recorded
    text is the byte-level target [feam replay] must reproduce.
    Call again after {!with_findings} — replay reads the last record. *)
val journal : t -> unit
