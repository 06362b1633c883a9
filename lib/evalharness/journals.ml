(* Per-cell flight-recorder journals for the migration matrix
   (paper §VI.B): one journal file per (binary, target site) cell, each
   self-contained — it carries the config/description/discovery
   payloads and every determinant decision of that cell's extended
   target phase, so any single cell can be replayed or diffed against
   a later sweep without the rest of the matrix.

   The file writer is injected so the harness stays free of host
   filesystem knowledge (evaltool writes real files; tests capture). *)

open Feam_sysmodel
module Recorder = Feam_flightrec.Recorder

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
      | _ -> '-')
    s

let cell_name binary target =
  Printf.sprintf "%s__to__%s.journal" (sanitize binary.Testset.id)
    (sanitize (Site.name target))

(* Journal one cell: the extended prediction (source-phase bundle, then
   the journaled target phase) of [binary] at [target]. *)
let journal_cell ?clock ?ctx ~write binary target =
  Migrate.with_staged binary target @@ fun staged_path ->
  (* The source phase runs before the recorder is armed: the cell's
     journal covers the target phase, which re-journals everything
     replay needs (payloads included). *)
  let bundle = Migrate.source_bundle ?clock ?ctx binary in
  let name = cell_name binary target in
  Recorder.configure ~tool:"evaltool" ~emit:(fun body -> write ~name body) ();
  Fun.protect ~finally:Recorder.disable @@ fun () ->
  (* No bundle: journal the basic prediction instead. *)
  ignore
    (Feam_core.Phases.target_phase ?clock ?ctx Feam_core.Config.default
       target (Site.base_env target) ?bundle:(Result.to_option bundle)
       ~binary_path:staged_path ()
      : (Feam_core.Report.t, string) result);
  Recorder.flush ();
  name

(* Journal every cell of the migration matrix ({!Migrate.cells}, the
   reported cells, as in the paper), as one evaluation pass under one
   context: a stack-memo hit replays the probes' records into the cell's
   journal, so each journal reads as if the cell ran alone.  Returns the
   journal names written. *)
let write_cells ?clock ~write sites binaries =
  let ctx = Feam_core.Eval_ctx.create () in
  List.map
    (fun (binary, target) -> journal_cell ?clock ~ctx ~write binary target)
    (Migrate.cells sites binaries)
