(** Parsed journals: the read side of the flight recorder. *)

type record = {
  seq : int;
  span : int option;
  kind : string;
  fields : (string * Feam_util.Json.t) list;
      (** every field except type/seq/span *)
}

type t = { schema : int; tool : string; records : record list }

(** Parse a JSONL journal body through {!Feam_util.Jsonl}.  Rejects
    non-journal documents and schemas outside
    [1..]{!Recorder.schema_version}; unknown record types are
    preserved. *)
val parse : string -> (t, string) result

val find_all : kind:string -> t -> record list
val last : kind:string -> t -> record option
val field : string -> record -> Feam_util.Json.t option
val str_field : string -> record -> string option

(** The decision that stood (the last one journaled). *)
val last_decision : determinant:string -> t -> record option

(** The [data] of the last payload record of the given kind. *)
val payload : kind:string -> t -> Feam_util.Json.t option
