(** One JSONL framing for FEAM's persisted record formats: flight-recorder
    journals, drift epochs, the drift timeline and BENCH_history.jsonl.

    A document is one JSON value per line.  Blank lines are skipped, but
    every error names the {e physical} line, counting blanks.  A document
    either opens with a header line [{"type":K,"schema":N,"tool":T}], or
    each of its records carries its own [schema] and a sequence number
    that strictly increases down the file.  Either way the schema gate
    accepts [1 <= N <= current]. *)

type header = { schema : int; tool : string }

type error =
  | Empty of string  (** no line at all; carries the document kind *)
  | Syntax of int * string  (** line, [Json.parse] message *)
  | Wrong_kind of int * string  (** line, the header type expected *)
  | Schema of int * int option * int
      (** line, schema found ([None]: missing), current schema *)
  | Order of int * string * int * int
      (** line, sequence field, its value, the previous record's *)
  | Record of int * string  (** line, the record decoder's reason *)

(** The one rendering of an error, ["line N: ..."] whenever a line is
    known. *)
val error_to_string : error -> string

(** [fold_document ~kind ~current ~init ~step text] reads a document
    whose first line is a [kind] header, then folds [step] over the
    records below it. *)
val fold_document :
  kind:string ->
  current:int ->
  init:'acc ->
  step:('acc -> Json.t -> ('acc, string) result) ->
  string ->
  (header * 'acc, error) result

(** [read_records ~current ~seq:(field, seq_of) ~decode text] reads a
    headerless document: every record passes the schema gate, then
    [decode], and [seq_of] of each record (the [field] named in errors)
    must exceed the previous record's. *)
val read_records :
  current:int ->
  seq:string * ('a -> int) ->
  decode:(Json.t -> ('a, string) result) ->
  string ->
  ('a list, error) result

(** The header line [{"type":kind,"schema":schema,"tool":tool}]. *)
val header : kind:string -> schema:int -> tool:string -> Json.t

(** One compact line per record, each ending in ["\n"].  Records are
    rendered as the sequence yields them, so a large document never
    holds all of its records' JSON trees at once. *)
val render : Json.t Seq.t -> string
