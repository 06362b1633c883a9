(** Runs a rule set over a context and renders the results — the
    library face of [feam lint].  Findings come back severe-first in a
    stable order; text, JSON and exit-code views are all derived from
    the same list, so the CLI gate and the prediction pipeline agree. *)

(** Run [rules] (default: every registered cell rule) over a context.
    Fleet rules in [rules] are skipped.  Findings are sorted
    severe-first, then by rule id and subject. *)
val run : ?rules:Rule.t list -> Context.t -> Feam_core.Diagnose.finding list

(** Run [rules] (default: every registered fleet rule) over the fleet
    view — the library face of [feam audit].  Cell rules in [rules] are
    skipped.  Same ordering contract as {!run}. *)
val run_fleet :
  ?rules:Rule.t list -> Fleet.t -> Feam_core.Diagnose.finding list

(** Apply a [--fail-on] gate to the findings: ["warn"] exits 2 on an
    error, 1 on a warning and 0 otherwise, ["error"] keeps only the error
    exit, ["never"] always passes.  Any other level is an error naming the valid set — the
    gate never silently accepts an unknown severity. *)
val gate :
  fail_on:string -> Feam_core.Diagnose.finding list -> (int, string) result

(** One-line tally, e.g. "2 errors, 1 warning, 0 info". *)
val summary : Feam_core.Diagnose.finding list -> string

(** Human-readable lint report. *)
val render_text : Context.t -> Feam_core.Diagnose.finding list -> string

(** Machine-readable lint report; parses back with {!Feam_util.Json}. *)
val to_json : Context.t -> Feam_core.Diagnose.finding list -> Feam_util.Json.t

(** Human-readable audit report. *)
val render_fleet_text :
  Fleet.t -> Feam_core.Diagnose.finding list -> string

(** Machine-readable audit report. *)
val fleet_to_json :
  Fleet.t -> Feam_core.Diagnose.finding list -> Feam_util.Json.t
