(* Cross-run prediction diffing: align two journals by determinant and
   pin exactly which evidence atom changed and which determinant
   flipped the verdict.

   Evidence objects are flattened to dotted-path atoms
   (e.g. [target.glibc.version = "2.3.4"]) so the diff names the one
   fact that moved instead of dumping whole JSON subtrees. *)

module Json = Feam_util.Json

type change = { path : string; a : string option; b : string option }

type determinant_diff = {
  dd_determinant : string;
  dd_verdict_a : string option;
  dd_verdict_b : string option;
  dd_flipped : bool;
  dd_changes : change list;
}

type t = {
  run_changes : change list;
  description_changes : change list;
  discovery_changes : change list;
  determinants : determinant_diff list;
  report_a : string option; (* "ready" / "not ready" *)
  report_b : string option;
}

let report_flipped t =
  match (t.report_a, t.report_b) with
  | Some a, Some b -> a <> b
  | _ -> false

let is_empty t =
  t.run_changes = [] && t.description_changes = []
  && t.discovery_changes = [] && t.determinants = []
  && not (report_flipped t)

(* --- flattening ------------------------------------------------------ *)

let atom = function
  | Json.Str s -> s
  | other -> Json.render other

let rec flatten prefix json acc =
  let join k = if prefix = "" then k else prefix ^ "." ^ k in
  match json with
  | Json.Obj fields ->
    List.fold_left (fun acc (k, v) -> flatten (join k) v acc) acc fields
  | Json.List items ->
    let _, acc =
      List.fold_left
        (fun (i, acc) v ->
          (i + 1, flatten (Printf.sprintf "%s[%d]" prefix i) v acc))
        (0, acc) items
    in
    acc
  | scalar -> (prefix, atom scalar) :: acc

let flatten json = List.rev (flatten "" json [])

let atoms = flatten

(* Changed paths in canonical (path-sorted) order: value lookup is by
   path, and the output is sorted, so the order in which either side
   listed its evidence atoms never shows through in the diff. *)
let diff_atoms a b =
  let changes =
    List.filter_map
      (fun (path, va) ->
        match List.assoc_opt path b with
        | Some vb when vb = va -> None
        | Some vb -> Some { path; a = Some va; b = Some vb }
        | None -> Some { path; a = Some va; b = None })
      a
  in
  let added =
    List.filter_map
      (fun (path, vb) ->
        if List.mem_assoc path a then None
        else Some { path; a = None; b = Some vb })
      b
  in
  List.sort (fun x y -> String.compare x.path y.path) (changes @ added)

let diff_json a b =
  let fl = function None -> [] | Some j -> flatten j in
  diff_atoms (fl a) (fl b)

(* --- journal alignment ----------------------------------------------- *)

let record_fields_json = function
  | None -> None
  | Some r -> Some (Json.Obj r.Journal.fields)

let determinant_names ja jb =
  let names_of j =
    List.filter_map
      (fun r ->
        if r.Journal.kind = "decision" then Journal.str_field "determinant" r
        else None)
      j.Journal.records
  in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    (names_of ja @ names_of jb)

let report_verdict j =
  match Journal.last ~kind:"report" j with
  | None -> None
  | Some r -> (
    match Journal.field "ready" r with
    | Some (Json.Bool true) -> Some "ready"
    | Some (Json.Bool false) -> Some "not ready"
    | _ -> None)

let compare ja jb =
  let run_changes =
    diff_json
      (record_fields_json (Journal.last ~kind:"run" ja))
      (record_fields_json (Journal.last ~kind:"run" jb))
  in
  let payload kind j = Journal.payload ~kind j in
  let description_changes =
    diff_json (payload "description" ja) (payload "description" jb)
  in
  let discovery_changes =
    diff_json (payload "discovery" ja) (payload "discovery" jb)
  in
  let determinants =
    List.filter_map
      (fun name ->
        let da = Journal.last_decision ~determinant:name ja in
        let db = Journal.last_decision ~determinant:name jb in
        let verdict = function
          | None -> None
          | Some r -> Journal.str_field "verdict" r
        in
        let evidence = function
          | None -> None
          | Some r -> Journal.field "evidence" r
        in
        let dd_verdict_a = verdict da and dd_verdict_b = verdict db in
        let dd_changes = diff_json (evidence da) (evidence db) in
        let dd_flipped = dd_verdict_a <> dd_verdict_b in
        if dd_flipped || dd_changes <> [] then
          Some
            { dd_determinant = name; dd_verdict_a; dd_verdict_b; dd_flipped;
              dd_changes }
        else None)
      (determinant_names ja jb)
  in
  {
    run_changes;
    description_changes;
    discovery_changes;
    determinants;
    report_a = report_verdict ja;
    report_b = report_verdict jb;
  }

(* --- typed parse front-end ------------------------------------------- *)

(* Diffing unparsed journal bodies: a truncated or schema-mismatched
   journal degrades to a typed error naming the side that failed, never
   an exception.  [Journal.parse] already rejects non-journal documents
   and schemas newer than the recorder's. *)
type journal_error = { je_side : [ `A | `B ]; je_reason : string }

let journal_error_to_string e =
  Printf.sprintf "journal %s: %s"
    (match e.je_side with `A -> "A" | `B -> "B")
    e.je_reason

let of_strings ~a ~b =
  match Journal.parse a with
  | Error reason -> Error { je_side = `A; je_reason = reason }
  | Ok ja -> (
    match Journal.parse b with
    | Error reason -> Error { je_side = `B; je_reason = reason }
    | Ok jb -> Ok (compare ja jb))

(* --- rendering ------------------------------------------------------- *)

let side = function None -> "(absent)" | Some v -> v

let render_change buf indent c =
  Buffer.add_string buf
    (Printf.sprintf "%s%s: %s -> %s\n" indent c.path (side c.a) (side c.b))

let render_text t =
  if is_empty t then "journal diff: no differences\n"
  else begin
    let buf = Buffer.create 512 in
    let total =
      List.length t.run_changes
      + List.length t.description_changes
      + List.length t.discovery_changes
      + List.fold_left
          (fun acc d -> acc + List.length d.dd_changes)
          0 t.determinants
    in
    Buffer.add_string buf
      (Printf.sprintf "journal diff: %d evidence change%s, %d determinant%s affected\n"
         total
         (if total = 1 then "" else "s")
         (List.length t.determinants)
         (if List.length t.determinants = 1 then "" else "s"));
    (match (t.report_a, t.report_b) with
    | Some a, Some b when a <> b ->
      Buffer.add_string buf
        (Printf.sprintf "verdict: %s -> %s  [FLIPPED]\n" a b)
    | Some a, Some _ ->
      Buffer.add_string buf (Printf.sprintf "verdict: %s (unchanged)\n" a)
    | _ -> ());
    let section name changes =
      if changes <> [] then begin
        Buffer.add_string buf (Printf.sprintf "\n%s:\n" name);
        List.iter (render_change buf "  ") changes
      end
    in
    section "run" t.run_changes;
    section "description" t.description_changes;
    section "discovery" t.discovery_changes;
    List.iter
      (fun d ->
        Buffer.add_string buf
          (Printf.sprintf "\ndeterminant %s: %s -> %s%s\n" d.dd_determinant
             (side d.dd_verdict_a) (side d.dd_verdict_b)
             (if d.dd_flipped then "  [FLIPPED]" else ""));
        List.iter (render_change buf "  ") d.dd_changes)
      t.determinants;
    Buffer.contents buf
  end

let change_to_json c =
  let opt = function None -> Json.Null | Some v -> Json.Str v in
  Json.Obj [ ("path", Json.Str c.path); ("a", opt c.a); ("b", opt c.b) ]

let to_json t =
  let opt = function None -> Json.Null | Some v -> Json.Str v in
  let changes cs = Json.List (List.map change_to_json cs) in
  Json.Obj
    [
      ("identical", Json.Bool (is_empty t));
      ( "verdict",
        Json.Obj
          [
            ("a", opt t.report_a);
            ("b", opt t.report_b);
            ("flipped", Json.Bool (report_flipped t));
          ] );
      ("run", changes t.run_changes);
      ("description", changes t.description_changes);
      ("discovery", changes t.discovery_changes);
      ( "determinants",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("determinant", Json.Str d.dd_determinant);
                   ("verdict_a", opt d.dd_verdict_a);
                   ("verdict_b", opt d.dd_verdict_b);
                   ("flipped", Json.Bool d.dd_flipped);
                   ("changes", changes d.dd_changes);
                 ])
             t.determinants) );
    ]
