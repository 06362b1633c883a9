(* Unsafe bundle entry names.  The target phase stages entries at
   [staging ^ "/" ^ name], so a name with a ".." component escapes the
   staging directory, and two entries with the same name collide in it.
   Bundle_io.parse rejects such artifacts outright with a typed error;
   this rule surfaces the same policy over bundles built in memory,
   which never pass through the parser, naming each offending entry. *)

let id = "bundle-entry-unsafe"

let check_names rule ~what names =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let flagged_dup : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.concat_map
    (fun name ->
      let traversal =
        if Feam_core.Bundle_io.name_traverses name then
          [
            Rule.finding rule ~subject:name
              ~fixit:"strip the directory components from the entry name"
              (Printf.sprintf
                 "%s name %S contains a \"..\" path component and would \
                  escape the staging directory"
                 what name);
          ]
        else []
      in
      let duplicate =
        if Hashtbl.mem seen name && not (Hashtbl.mem flagged_dup name) then begin
          Hashtbl.add flagged_dup name ();
          [
            Rule.finding rule ~subject:name
              ~fixit:"drop or rename the colliding entry"
              (Printf.sprintf
                 "%s name %S appears more than once and the copies would \
                  collide in the staging directory"
                 what name);
          ]
        end
        else []
      in
      Hashtbl.replace seen name ();
      traversal @ duplicate)
    names

let check rule (ctx : Context.t) =
  let b = ctx.Context.bundle in
  check_names rule ~what:"copy request"
    (List.map
       (fun (c : Feam_core.Bdc.library_copy) -> c.Feam_core.Bdc.copy_request)
       b.Feam_core.Bundle.copies)
  @ check_names rule ~what:"probe"
      (List.map
         (fun (p : Feam_core.Bundle.probe) -> p.Feam_core.Bundle.probe_name)
         b.Feam_core.Bundle.probes)

let rec rule =
  {
    Rule.id;
    title = "entry names that would escape or collide in the staging dir";
    default_level = Feam_core.Diagnose.Error;
    explain =
      "Checks every copy request and probe name for \"..\" path \
       components (which would escape the staging directory at the \
       target) and for duplicates (which would collide in it).  \
       Loading a bundle artifact rejects such names outright with a \
       typed error; this rule surfaces the same policy over bundles \
       built in memory, which never pass through the parser.\n\
       Fix: strip directory components from entry names and drop or \
       rename colliding entries, then re-bundle.";
    check = Rule.Cell (fun ctx -> check rule ctx);
  }
