(** A span: one timed, named step of the pipeline, with attributes and
    point-in-time events, forming a tree via parent ids.  Spans are
    mutable while open and handed to the sink once, at completion. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ev_name : string;
  ev_at_ns : int64;
  ev_attrs : (string * value) list;
}

type t = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  start_ns : int64;
  mutable duration_ns : int64;
  mutable attrs : (string * value) list;
  mutable events : event list;
}

val attrs_to_json : (string * value) list -> Feam_util.Json.t

(** One JSONL record per span. *)
val to_json : t -> Feam_util.Json.t

(** ["1.2ms"]-style durations for the human-readable sink. *)
val duration_to_string : int64 -> string
