(* One JSONL framing for every persisted record format: flight-recorder
   journals, drift epochs, the drift timeline and BENCH_history.jsonl.
   This module owns the line splitting, the physical line numbers, the
   optional header line, the schema gate, the record-order check and
   the one rendering of their errors; each format keeps only its record
   decoders and encoders. *)

type header = { schema : int; tool : string }

type error =
  | Empty of string
  | Syntax of int * string
  | Wrong_kind of int * string
  | Schema of int * int option * int
  | Order of int * string * int * int
  | Record of int * string

let error_to_string = function
  | Empty kind -> Printf.sprintf "empty %s document" kind
  | Syntax (line, reason) | Record (line, reason) ->
    Printf.sprintf "line %d: %s" line reason
  | Wrong_kind (line, kind) ->
    Printf.sprintf "line %d: not a %s document (missing {\"type\":%S} header)"
      line kind kind
  | Schema (line, None, _) ->
    Printf.sprintf "line %d: missing integer schema" line
  | Schema (line, Some v, current) ->
    Printf.sprintf "line %d: unsupported schema %d (this build reads 1..%d)"
      line v current
  | Order (line, field, v, previous) ->
    Printf.sprintf "line %d: %s %d does not increase on previous %s %d" line
      field v field previous

(* Non-blank lines, each with its physical 1-based line number. *)
let lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter (fun (_, line) -> String.trim line <> "")

let gate ~current line json =
  match Json.int_field "schema" json with
  | Some v when 1 <= v && v <= current -> Ok v
  | found -> Error (Schema (line, found, current))

let parse (line, text) =
  Result.map_error (fun e -> Syntax (line, e)) (Json.parse text)

let ( let* ) = Result.bind

let rec fold_lines acc step = function
  | [] -> Ok acc
  | ((line, _) as l) :: rest ->
    let* json = parse l in
    let* acc = step acc line json in
    fold_lines acc step rest

let fold_document ~kind ~current ~init ~step text =
  match lines text with
  | [] -> Error (Empty kind)
  | ((line, _) as first) :: rest ->
    let* json = parse first in
    if Json.str_field "type" json <> Some kind then
      Error (Wrong_kind (line, kind))
    else
      let* schema = gate ~current line json in
      let tool = Option.value (Json.str_field "tool" json) ~default:"" in
      let* acc =
        fold_lines init
          (fun acc line json ->
            Result.map_error (fun e -> Record (line, e)) (step acc json))
          rest
      in
      Ok ({ schema; tool }, acc)

let read_records ~current ~seq:(field, seq_of) ~decode text =
  let* records =
    fold_lines []
      (fun acc line json ->
        let* _ = gate ~current line json in
        match (decode json, acc) with
        | Error e, _ -> Error (Record (line, e))
        | Ok r, prev :: _ when seq_of r <= seq_of prev ->
          Error (Order (line, field, seq_of r, seq_of prev))
        | Ok r, _ -> Ok (r :: acc))
      (lines text)
  in
  Ok (List.rev records)

let header ~kind ~schema ~tool =
  Json.Obj
    [
      ("type", Json.Str kind);
      ("schema", Json.Int schema);
      ("tool", Json.Str tool);
    ]

let render records =
  let buf = Buffer.create 4096 in
  Seq.iter
    (fun json ->
      Json.render_into buf json;
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf
