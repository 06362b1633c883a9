(* Parsed journals: the read side of the flight recorder.  A journal
   is a Jsonl document — a "journal" header line, then one record per
   line.  Unknown record types are preserved verbatim so newer
   journals degrade gracefully under older readers. *)

module Json = Feam_util.Json

type record = {
  seq : int;
  span : int option;
  kind : string;
  fields : (string * Json.t) list; (* everything but type/seq/span *)
}

type t = { schema : int; tool : string; records : record list }

let parse_record json =
  match (json, Json.str_field "type" json, Json.int_field "seq" json) with
  | Json.Obj fields, Some kind, Some seq ->
    let fields =
      List.filter
        (fun (k, _) -> k <> "type" && k <> "seq" && k <> "span")
        fields
    in
    Ok { seq; span = Json.int_field "span" json; kind; fields }
  | Json.Obj _, None, _ -> Error "record has no type"
  | Json.Obj _, _, None -> Error "record has no seq"
  | _ -> Error "record is not an object"

let parse body =
  Feam_util.Jsonl.fold_document ~kind:"journal"
    ~current:Recorder.schema_version ~init:[]
    ~step:(fun acc json -> Result.map (fun r -> r :: acc) (parse_record json))
    body
  |> Result.map (fun ({ Feam_util.Jsonl.schema; tool }, records) ->
         { schema; tool; records = List.rev records })
  |> Result.map_error Feam_util.Jsonl.error_to_string

(* Accessors. *)

let find_all ~kind t = List.filter (fun r -> r.kind = kind) t.records

let last ~kind t =
  List.fold_left
    (fun acc r -> if r.kind = kind then Some r else acc)
    None t.records

let field key r = List.assoc_opt key r.fields

let str_field key r =
  match field key r with Some (Json.Str s) -> Some s | _ -> None

(* Decision records for a determinant, in journal order; the last one
   is the verdict that stood. *)
let decisions ~determinant t =
  find_all ~kind:"decision" t
  |> List.filter (fun r -> str_field "determinant" r = Some determinant)

let last_decision ~determinant t =
  match List.rev (decisions ~determinant t) with [] -> None | r :: _ -> Some r

(* The [data] of the last payload record of the given kind. *)
let payload ~kind t =
  find_all ~kind:"payload" t
  |> List.filter (fun r -> str_field "kind" r = Some kind)
  |> List.rev
  |> function
  | [] -> None
  | r :: _ -> field "data" r
