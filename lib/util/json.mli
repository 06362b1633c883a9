(** Minimal JSON emitter and parser for machine-readable FEAM reports.
    ASCII-oriented (\\u escapes above 127 decode to a placeholder). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering with proper string escaping. *)
val render : t -> string

(** Append the compact rendering to a buffer. *)
val render_into : Buffer.t -> t -> unit

(** Parse a complete JSON document. *)
val parse : string -> (t, string) result

(** Object field lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** [Float] or [Int], as a float. *)
val to_number_opt : t -> float option

(** [int_field key json] is [member key json] read as an int; likewise
    for the other typed field accessors.  [None] when the field is
    missing or holds another type. *)
val int_field : string -> t -> int option

val str_field : string -> t -> string option
val bool_field : string -> t -> bool option
val list_field : string -> t -> t list option
val number_field : string -> t -> float option

(** The strings of a list field: [[]] when the field is missing or not a
    list, non-string items dropped. *)
val strings_field : string -> t -> string list

(** [pairs_field key (a, b) json]: the [(a, b)] string pairs of a
    list-of-objects field; items missing either string are dropped. *)
val pairs_field : string -> string * string -> t -> (string * string) list
