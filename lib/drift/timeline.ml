(* The readiness timeline: an append-only, schema-versioned JSONL
   history of the fleet's readiness rate across epochs, plus the
   declarative alert rules evaluated over it.

   Framed by Feam_util.Jsonl like BENCH_history.jsonl: one record per
   line, a schema tag on every record, strictly-increasing epoch
   numbers, line-numbered parse errors, no timestamps.  The gate mirrors
   Engine.gate so `feam drift check --fail-on` behaves exactly like
   `feam check --fail-on`. *)

module Json = Feam_util.Json
module Table = Feam_util.Table

let schema_version = 1

type flip_entry = { fe_cell : string; fe_before : bool; fe_after : bool }

type attribution_entry = {
  ae_atom : string;  (* "owner path", e.g. "site fir inventory./lib64/libm.so.6" *)
  ae_cells : int;    (* cells this atom invalidated *)
  ae_to_ready : int;
  ae_to_not_ready : int;
}

type entry = {
  te_epoch : int;
  te_hash : string;  (* the epoch snapshot's content address *)
  te_label : string; (* the perturbation applied; "" at baseline *)
  te_cells_total : int;
  te_ready : int;
  te_rate : float;
  te_reevaluated : int; (* cells incrementally re-evaluated this epoch *)
  te_flips : flip_entry list;
  te_attribution : attribution_entry list;
}

(* -- serialization ----------------------------------------------------- *)

let entry_to_json e =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("epoch", Json.Int e.te_epoch);
      ("hash", Json.Str e.te_hash);
      ("label", Json.Str e.te_label);
      ("cells_total", Json.Int e.te_cells_total);
      ("ready", Json.Int e.te_ready);
      ("rate", Json.Float e.te_rate);
      ("reevaluated", Json.Int e.te_reevaluated);
      ( "flips",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("cell", Json.Str f.fe_cell);
                   ("before", Json.Bool f.fe_before);
                   ("after", Json.Bool f.fe_after);
                 ])
             e.te_flips) );
      ( "attribution",
        Json.List
          (List.map
             (fun a ->
               Json.Obj
                 [
                   ("atom", Json.Str a.ae_atom);
                   ("cells", Json.Int a.ae_cells);
                   ("to_ready", Json.Int a.ae_to_ready);
                   ("to_not_ready", Json.Int a.ae_to_not_ready);
                 ])
             e.te_attribution) );
    ]

let entry_of_json json =
  match
    ( Json.int_field "epoch" json,
      Json.int_field "cells_total" json,
      Json.int_field "ready" json,
      Json.number_field "rate" json )
  with
  | Some epoch, Some cells_total, Some ready, Some rate ->
    let items key = Option.value (Json.list_field key json) ~default:[] in
    let flips =
      List.filter_map
        (fun item ->
          match
            ( Json.str_field "cell" item,
              Json.bool_field "before" item,
              Json.bool_field "after" item )
          with
          | Some cell, Some before, Some after ->
            Some { fe_cell = cell; fe_before = before; fe_after = after }
          | _ -> None)
        (items "flips")
    in
    let attribution =
      List.filter_map
        (fun item ->
          match (Json.str_field "atom" item, Json.int_field "cells" item) with
          | Some atom, Some cells ->
            let count key = Option.value (Json.int_field key item) ~default:0 in
            Some
              {
                ae_atom = atom;
                ae_cells = cells;
                ae_to_ready = count "to_ready";
                ae_to_not_ready = count "to_not_ready";
              }
          | _ -> None)
        (items "attribution")
    in
    let str key = Option.value (Json.str_field key json) ~default:"" in
    Ok
      {
        te_epoch = epoch;
        te_hash = str "hash";
        te_label = str "label";
        te_cells_total = cells_total;
        te_ready = ready;
        te_rate = rate;
        te_reevaluated =
          Option.value (Json.int_field "reevaluated" json) ~default:0;
        te_flips = flips;
        te_attribution = attribution;
      }
  | _ -> Error "record needs integer epoch/cells_total/ready and a rate"

let parse_history text =
  Feam_util.Jsonl.read_records ~current:schema_version
    ~seq:("epoch", fun e -> e.te_epoch)
    ~decode:entry_of_json text
  |> Result.map_error Feam_util.Jsonl.error_to_string

let render_history entries =
  Feam_util.Jsonl.render (Seq.map entry_to_json (List.to_seq entries))

(* -- alert rules ------------------------------------------------------- *)

type severity = Info | Warn | Error

let severity_rank = function Info -> 0 | Warn -> 1 | Error -> 2

let severity_to_string = function
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_of_string = function
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type rule =
  | Rate_drop of float * severity
      (* fire when an epoch's rate drops more than the fraction below
         the previous epoch's rate *)
  | Regression of severity
      (* fire on any ready -> not-ready flip *)
  | Watch of string * severity
      (* fire on any flip (either direction) of the named binary *)

(* The seeded single-atom perturbations move readiness a few cells at a
   time, so a 30% drop means a correlated fleet event, not noise. *)
let default_rules = [ Rate_drop (0.30, Warn); Regression Info ]

(* Rule files: one rule per line, '#' comments.
     rate-drop <fraction> <severity>
     regression <severity>
     watch <binary-id> <severity>  *)
let parse_rules text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Stdlib.Ok (List.rev acc)
    | line :: rest -> (
      let fail msg = Stdlib.Error (Printf.sprintf "line %d: %s" lineno msg) in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun w -> w <> "")
      with
      | [] -> go (lineno + 1) acc rest
      | [ "rate-drop"; frac; sev ] -> (
        match (float_of_string_opt frac, severity_of_string sev) with
        | Some f, Some s when f > 0.0 && f <= 1.0 ->
          go (lineno + 1) (Rate_drop (f, s) :: acc) rest
        | Some _, Some _ -> fail "rate-drop fraction must be in (0, 1]"
        | None, _ -> fail (Printf.sprintf "bad fraction %S" frac)
        | _, None -> fail (Printf.sprintf "bad severity %S" sev))
      | [ "regression"; sev ] -> (
        match severity_of_string sev with
        | Some s -> go (lineno + 1) (Regression s :: acc) rest
        | None -> fail (Printf.sprintf "bad severity %S" sev))
      | [ "watch"; binary; sev ] -> (
        match severity_of_string sev with
        | Some s -> go (lineno + 1) (Watch (binary, s) :: acc) rest
        | None -> fail (Printf.sprintf "bad severity %S" sev))
      | word :: _ -> fail (Printf.sprintf "unknown rule %S" word))
  in
  go 1 [] lines

type finding = { fi_epoch : int; fi_severity : severity; fi_message : string }

(* Evaluate rules over consecutive timeline entries.  Deterministic:
   findings come out in (epoch, rule order) order. *)
let check rules entries =
  let rec pairs acc = function
    | a :: (b :: _ as rest) -> pairs ((Some a, b) :: acc) rest
    | [ only ] when acc = [] -> [ (None, only) ]
    | _ -> List.rev acc
  in
  let windows =
    match entries with
    | [] -> []
    | [ only ] -> [ (None, only) ]
    | entries -> pairs [] entries
  in
  List.concat_map
    (fun (prev, e) ->
      List.filter_map
        (fun rule ->
          match rule with
          | Rate_drop (threshold, sev) -> (
            match prev with
            | Some p when p.te_rate -. e.te_rate > threshold ->
              Some
                {
                  fi_epoch = e.te_epoch;
                  fi_severity = sev;
                  fi_message =
                    Printf.sprintf
                      "readiness rate dropped %.3f -> %.3f (more than %g) at \
                       epoch %d%s"
                      p.te_rate e.te_rate threshold e.te_epoch
                      (if e.te_label = "" then ""
                       else Printf.sprintf " (%s)" e.te_label);
                }
            | _ -> None)
          | Regression sev -> (
            match
              List.filter (fun f -> f.fe_before && not f.fe_after) e.te_flips
            with
            | [] -> None
            | regs ->
              Some
                {
                  fi_epoch = e.te_epoch;
                  fi_severity = sev;
                  fi_message =
                    Printf.sprintf "%d cell%s went ready -> not-ready at epoch %d: %s"
                      (List.length regs)
                      (if List.length regs = 1 then "" else "s")
                      e.te_epoch
                      (String.concat ", " (List.map (fun f -> f.fe_cell) regs));
                })
          | Watch (binary, sev) -> (
            (* a full binary id matches its own cells ("id->target");
               a bare benchmark name matches every homed variant
               ("name@site/stack->target") *)
            let has_prefix p c =
              String.length c >= String.length p
              && String.sub c 0 (String.length p) = p
            in
            let mine =
              List.filter
                (fun f ->
                  has_prefix (binary ^ "->") f.fe_cell
                  || has_prefix (binary ^ "@") f.fe_cell)
                e.te_flips
            in
            match mine with
            | [] -> None
            | mine ->
              Some
                {
                  fi_epoch = e.te_epoch;
                  fi_severity = sev;
                  fi_message =
                    Printf.sprintf "watched binary %s flipped at epoch %d: %s"
                      binary e.te_epoch
                      (String.concat ", "
                         (List.map
                            (fun f ->
                              Printf.sprintf "%s %s->%s" f.fe_cell
                                (if f.fe_before then "ready" else "not-ready")
                                (if f.fe_after then "ready" else "not-ready"))
                            mine));
                }))
        rules)
    windows

(* -- gating ------------------------------------------------------------ *)

let worst findings =
  List.fold_left
    (fun acc f ->
      match acc with
      | None -> Some f.fi_severity
      | Some s ->
        if severity_rank f.fi_severity > severity_rank s then Some f.fi_severity
        else acc)
    None findings

let exit_code findings =
  match worst findings with
  | Some Error -> 2
  | Some Warn -> 1
  | Some Info | None -> 0

let fail_on_levels = [ "warn"; "error"; "never" ]

(* Mirrors Engine.gate so drift check composes with the rest of the
   CLI's --fail-on contract. *)
let gate ~fail_on findings =
  match fail_on with
  | "warn" -> Stdlib.Ok (exit_code findings)
  | "error" -> Stdlib.Ok (if exit_code findings = 2 then 2 else 0)
  | "never" -> Stdlib.Ok 0
  | other ->
    Stdlib.Error
      (Printf.sprintf "unknown --fail-on level %S (expected %s)" other
         (String.concat ", " fail_on_levels))

(* -- rendering --------------------------------------------------------- *)

let render_entries entries =
  let rows =
    List.map
      (fun e ->
        [
          string_of_int e.te_epoch;
          (if e.te_label = "" then "(baseline)" else e.te_label);
          Printf.sprintf "%d/%d" e.te_ready e.te_cells_total;
          Printf.sprintf "%.3f" e.te_rate;
          string_of_int e.te_reevaluated;
          string_of_int (List.length e.te_flips);
        ])
      entries
  in
  Table.render
    (Table.make ~title:"readiness timeline"
       ~aligns:
         [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "Epoch"; "Perturbation"; "Ready"; "Rate"; "Re-eval"; "Flips" ]
       rows)

let render_findings findings =
  match findings with
  | [] -> "drift check: no alerts\n"
  | findings ->
    String.concat ""
      (List.map
         (fun f ->
           Printf.sprintf "[%s] %s\n"
             (severity_to_string f.fi_severity)
             f.fi_message)
         findings)

let findings_to_json findings =
  Json.List
    (List.map
       (fun f ->
         Json.Obj
           [
             ("epoch", Json.Int f.fi_epoch);
             ("severity", Json.Str (severity_to_string f.fi_severity));
             ("message", Json.Str f.fi_message);
           ])
       findings)
