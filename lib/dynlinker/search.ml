(* Dynamic-linker library search semantics.

   Directory precedence follows ld.so: DT_RPATH (only when no DT_RUNPATH
   is present), LD_LIBRARY_PATH, DT_RUNPATH, the linker cache directories
   (/etc/ld.so.conf registrations), then the default system directories.
   Both the ground-truth executor and the ldd emulation use this module,
   so a library made visible by the resolution model's environment edits
   is found by exactly the rules a real system would apply. *)

open Feam_sysmodel

let split_path_list value = String.split_on_char ':' value |> List.filter (( <> ) "")

(* Search directories for resolving the dependencies of [spec] under
   [env] at [site]. *)
let search_dirs site env (spec : Feam_elf.Spec.t) =
  let rpath =
    match (spec.rpath, spec.runpath) with
    | Some rpath, None -> split_path_list rpath
    | _ -> [] (* DT_RUNPATH disables DT_RPATH *)
  in
  let ld_library_path = Env.ld_library_path env in
  let runpath =
    match spec.runpath with Some r -> split_path_list r | None -> []
  in
  rpath @ ld_library_path @ runpath @ Site.ld_cache_dirs site
  @ Site.default_lib_dirs site

(* First match for [name] across [dirs] that is a regular ELF file. *)
let locate_in_dirs site dirs name =
  let vfs = Site.vfs site in
  List.find_map
    (fun dir ->
      match Vfs.resolve vfs (dir ^ "/" ^ name) with
      | Some (real_path, { Vfs.kind = Vfs.Elf _; _ }) -> Some real_path
      | Some _ | None -> None)
    dirs

(* Locate and parse: returns the path and the parsed image, read
   through the file's image handle, so a repeat lookup hashes nothing. *)
let locate_elf site dirs name =
  let vfs = Site.vfs site in
  Option.bind
    (List.find_map (fun dir -> Vfs.resolve_image vfs (dir ^ "/" ^ name)) dirs)
    (fun (path, image) ->
      match Feam_elf.Reader.parse_image image with
      | Ok parsed -> Some (path, parsed)
      | Error _ -> None)
