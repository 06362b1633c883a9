(* An agreement journal is replayable from coordinates alone: every
   scenario is a pure function of (seed, index, keep), so the journal
   only records those plus the rendered report to diff against. *)

open Feam_util
module Journal = Feam_flightrec.Journal

type outcome = {
  runs : Harness.run list;
  rendered : string;
  recorded : string option;
  matches : bool;
}

let scenario_records journal =
  List.filter_map
    (fun r ->
      match Journal.field "data" r with
      | Some data
        when Journal.str_field "kind" r = Some "agree.scenario" ->
        Some data
      | _ -> None)
    (Journal.find_all ~kind:"payload" journal)

let has_corpus journal = scenario_records journal <> []

let coords data =
  let int name =
    match Json.int_field name data with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "agree.scenario payload: missing %s" name)
  in
  let ( let* ) r f = Result.bind r f in
  let* seed = int "seed" in
  let* index = int "index" in
  let* keep =
    match Json.list_field "keep" data with
    | None -> Error "agree.scenario payload: missing keep"
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match Json.to_int_opt item with
          | Some i -> Ok (acc @ [ i ])
          | None -> Error "agree.scenario payload: non-integer keep index")
        (Ok []) items
  in
  Ok (seed, index, keep)

let of_journal journal =
  match scenario_records journal with
  | [] -> Error "journal has no agreement corpus (no agree.scenario payloads)"
  | payloads ->
    let ( let* ) r f = Result.bind r f in
    let* runs =
      List.fold_left
        (fun acc data ->
          let* acc = acc in
          let* seed, index, keep = coords data in
          Ok (acc @ [ Harness.rerun ~seed ~index ~keep ]))
        (Ok []) payloads
    in
    let rendered = Harness.render_report runs in
    let recorded =
      Option.bind
        (Journal.payload ~kind:"agree.report" journal)
        Json.to_string_opt
    in
    let matches = match recorded with Some r -> r = rendered | None -> false in
    Ok { runs; rendered; recorded; matches }
