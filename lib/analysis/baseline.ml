(* Audit suppression baselines.  Keyed on (rule id, subject) only:
   stable across message rewording, deterministic to render, trivial to
   diff in version control. *)

module Pairs = Set.Make (struct
  type t = string * string

  let compare = compare
end)

type t = Pairs.t

let header = "FEAM-BASELINE 1"
let empty = Pairs.empty
let entries t = Pairs.elements t

let key (f : Feam_core.Diagnose.finding) =
  (f.Feam_core.Diagnose.rule_id, f.Feam_core.Diagnose.subject)

let of_findings findings =
  List.fold_left (fun acc f -> Pairs.add (key f) acc) empty findings

let mem t f = Pairs.mem (key f) t

let apply t findings =
  List.partition (fun f -> not (mem t f)) findings

let render t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ^ "\n");
  List.iter
    (fun (rule_id, subject) ->
      Buffer.add_string buf (Printf.sprintf "%s\t%s\n" rule_id subject))
    (entries t);
  Buffer.contents buf

let parse text =
  match String.split_on_char '\n' text with
  | first :: rest when String.trim first = header ->
    let exception Bad of string in
    (try
       Ok
         (List.fold_left
            (fun acc line ->
              let line = String.trim line in
              if line = "" || String.length line > 0 && line.[0] = '#' then
                acc
              else
                match String.index_opt line '\t' with
                | None -> raise (Bad line)
                | Some i ->
                  let rule_id = String.sub line 0 i in
                  let subject =
                    String.sub line (i + 1) (String.length line - i - 1)
                  in
                  if rule_id = "" then raise (Bad line)
                  else Pairs.add (rule_id, subject) acc)
            empty rest)
     with Bad line ->
       Error
         (Printf.sprintf
            "baseline entry %S is not <rule-id>\\t<subject>" line))
  | _ -> Error (Printf.sprintf "baseline must start with %S" header)
