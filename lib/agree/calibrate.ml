(* Per-rule severity calibration against the oracle (ROADMAP item 5
   follow-on).  The agreement corpus gives every lint finding a ground
   truth: did the scenario actually fail to launch?  A rule whose
   warn-or-worse findings never coincide with an oracle failure is, on
   this corpus, pure noise at its severity — the calibration demotes it
   to info rather than letting it gate anything. *)

open Feam_core

let warn_or_worse (f : Diagnose.finding) =
  Diagnose.level_rank f.Diagnose.level <= Diagnose.level_rank Diagnose.Warn

type row = {
  cal_rule : string;
  cal_level : Diagnose.level;
  cal_fired : int;
  cal_warned : int;
  cal_cofail : int;
  cal_demote : bool;
}

let row_of_rule runs (rule : Feam_analysis.Rule.t) =
  let of_rule (f : Diagnose.finding) = f.Diagnose.rule_id = rule.Feam_analysis.Rule.id in
  let fired, warned, cofail =
    List.fold_left
      (fun (fired, warned, cofail) (r : Harness.run) ->
        let mine = List.filter of_rule r.Harness.r_findings in
        let warns = List.exists warn_or_worse mine in
        let fails = not (Verdict.accepts r.Harness.r_oracle) in
        ( (if mine <> [] then fired + 1 else fired),
          (if warns then warned + 1 else warned),
          if warns && fails then cofail + 1 else cofail ))
      (0, 0, 0) runs
  in
  {
    cal_rule = rule.Feam_analysis.Rule.id;
    cal_level = rule.Feam_analysis.Rule.default_level;
    cal_fired = fired;
    cal_warned = warned;
    cal_cofail = cofail;
    cal_demote = warned > 0 && cofail = 0;
  }

let rows runs =
  List.map (row_of_rule runs) (Feam_analysis.Registry.cell_rules ())

let demotions runs =
  rows runs
  |> List.filter (fun r -> r.cal_demote)
  |> List.map (fun r -> r.cal_rule)

let verdict_of_row r =
  if r.cal_demote then "demote to info"
  else if r.cal_warned = 0 then "-"
  else "keep"

let precision_of_row r =
  if r.cal_warned = 0 then "-"
  else Feam_util.Table.percent r.cal_cofail r.cal_warned

let cells runs =
  rows runs
  |> List.map (fun r ->
         [
           r.cal_rule;
           Diagnose.level_to_string r.cal_level;
           string_of_int r.cal_fired;
           string_of_int r.cal_warned;
           string_of_int r.cal_cofail;
           precision_of_row r;
           verdict_of_row r;
         ])

let header = [ "Rule"; "Level"; "Fired"; "Warn+"; "Co-fail"; "Precision"; "Verdict" ]

let table runs =
  Feam_util.Table.make
    ~title:
      "Rule severity calibration against the oracle (precision = co-fail \
       / warn+)"
    ~header (cells runs)
