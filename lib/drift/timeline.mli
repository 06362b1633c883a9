(** The readiness timeline: append-only schema-versioned JSONL history
    of per-epoch readiness, flips, and attribution — plus declarative
    alert rules gated exactly like [Engine.gate]. *)

type flip_entry = { fe_cell : string; fe_before : bool; fe_after : bool }

type attribution_entry = {
  ae_atom : string;  (** "owner path" display form of the changed atom *)
  ae_cells : int;  (** cells this atom invalidated *)
  ae_to_ready : int;
  ae_to_not_ready : int;
}

type entry = {
  te_epoch : int;
  te_hash : string;  (** the epoch snapshot's content address *)
  te_label : string;  (** the perturbation applied; [""] at baseline *)
  te_cells_total : int;
  te_ready : int;
  te_rate : float;
  te_reevaluated : int;  (** cells incrementally re-evaluated *)
  te_flips : flip_entry list;
  te_attribution : attribution_entry list;
}

val entry_to_json : entry -> Feam_util.Json.t

(** Parse timeline.jsonl through {!Feam_util.Jsonl}: physical line
    numbers in errors, schema gate per record, strictly-increasing
    epoch numbers. *)
val parse_history : string -> (entry list, string) result

val render_history : entry list -> string

type severity = Info | Warn | Error

type rule =
  | Rate_drop of float * severity
      (** fire when an epoch's readiness rate drops more than the
          fraction below the previous epoch's *)
  | Regression of severity  (** fire on any ready -> not-ready flip *)
  | Watch of string * severity
      (** fire on any flip of the named binary's cells; the name may be
          a full binary id or a bare benchmark name, which matches
          every homed variant ([name@site/stack]) *)

val default_rules : rule list

(** Parse a rules file: one rule per line ([rate-drop <frac> <sev>],
    [regression <sev>], [watch <binary> <sev>]), ['#'] comments,
    line-numbered errors. *)
val parse_rules : string -> (rule list, string) result

type finding = { fi_epoch : int; fi_severity : severity; fi_message : string }

(** Evaluate rules over consecutive timeline entries; deterministic
    (epoch, rule) order. *)
val check : rule list -> entry list -> finding list

(** Mirrors [Engine.gate]: "warn" gates on warnings and errors, "error"
    on errors only, "never" always exits 0; anything else is a usage
    error. *)
val gate : fail_on:string -> finding list -> (int, string) result

val render_entries : entry list -> string

val render_findings : finding list -> string

val findings_to_json : finding list -> Feam_util.Json.t
