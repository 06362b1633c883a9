(* Imports the staged closure cannot bind.  Only definitive misses are
   reported — ones the symbol simulation proved cannot come from an
   object merely absent from the bundle (those belong to the
   library-level rules).  Strong (GLOBAL) misses abort the program at
   load time under ld.so's default eager binding of versioned symbols
   or at first call otherwise; weak misses legally bind to zero and are
   surfaced as information. *)

open Feam_core
module S = Feam_symcheck.Symcheck

let id = "symbol-unresolved"

let miss_finding rule ?level (m : S.miss) =
  let consulted =
    match m.S.miss_expected with
    | Some p -> Printf.sprintf " (consulted %s)" p
    | None -> ""
  in
  Rule.finding rule ?level
    ~subject:(S.symbol_ref m.S.miss_symbol m.S.miss_version)
    ~fixit:
      "re-stage a copy that exports the symbol from a site where the \
       binary runs (feam symcheck prints the full bind log)"
    (Printf.sprintf "imported by %s but exported by no object in the \
                     staged closure%s"
       m.S.miss_importer consulted)

let check rule (ctx : Context.t) =
  let r = Context.symbols ctx in
  let definitive = List.filter (fun m -> m.S.miss_definitive) in
  List.map (miss_finding rule) (definitive r.S.unresolved_strong)
  @ List.map
      (miss_finding rule ~level:Diagnose.Info)
      (definitive r.S.unresolved_weak)

let rec rule =
  {
    Rule.id;
    title = "imports no object in the staged closure exports";
    default_level = Feam_core.Diagnose.Error;
    explain =
      "Simulates ld.so's breadth-first binding over the staged closure \
       and reports imports no object exports.  Only definitive misses \
       are reported \226\128\148 ones proven not to come from an object \
       merely absent from the bundle (those belong to the library-level \
       rules).  Strong (GLOBAL) misses abort the program at load time or \
       first call (error); weak misses legally bind to zero (info).\n\
       Fix: re-stage a copy that exports the symbol from a site where \
       the binary runs; `feam symcheck` prints the full bind log.";
    check = Rule.Cell (fun ctx -> check rule ctx);
  }
