(** Cross-run prediction diffing: align two journals by determinant
    and pin which evidence atom changed and which determinant flipped
    the verdict. *)

type change = {
  path : string;  (** dotted path of the evidence atom *)
  a : string option;  (** value in the first journal, if present *)
  b : string option;  (** value in the second journal, if present *)
}

type determinant_diff = {
  dd_determinant : string;
  dd_verdict_a : string option;
  dd_verdict_b : string option;
  dd_flipped : bool;  (** the determinant's verdict changed *)
  dd_changes : change list;  (** evidence atoms that moved *)
}

type t = {
  run_changes : change list;
  description_changes : change list;
  discovery_changes : change list;
  determinants : determinant_diff list;
      (** only determinants with a flip or evidence change *)
  report_a : string option;  (** overall verdict, "ready"/"not ready" *)
  report_b : string option;
}

val is_empty : t -> bool

(** A side that failed to parse: truncated bodies, non-journal
    documents, schema mismatches.  Never an exception. *)
type journal_error = { je_side : [ `A | `B ]; je_reason : string }

val journal_error_to_string : journal_error -> string

(** Parse both journal bodies and compare them.  Degrades to a typed
    error naming the side whose body is truncated, not a journal, or
    carries a newer schema than this build understands. *)
val of_strings : a:string -> b:string -> (t, journal_error) result

(** Flatten a JSON document to dotted-path evidence atoms, in document
    order (lists become [path[i]]).  The diff's own vocabulary, exposed
    for layers that diff other evidence documents (the drift
    observatory's epoch snapshots). *)
val atoms : Feam_util.Json.t -> (string * string) list

val render_text : t -> string
val to_json : t -> Feam_util.Json.t
