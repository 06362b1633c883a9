(* Dynamic-linker library search semantics.

   Directory precedence follows ld.so: DT_RPATH (only when no DT_RUNPATH
   is present), LD_LIBRARY_PATH, DT_RUNPATH, the linker cache directories
   (/etc/ld.so.conf registrations), then the default system directories.
   Both the ground-truth executor and the ldd emulation use this module,
   so a library made visible by the resolution model's environment edits
   is found by exactly the rules a real system would apply. *)

open Feam_sysmodel

let split_path_list value = String.split_on_char ':' value |> List.filter (( <> ) "")

(* [s] with every [token] replaced by [by]. *)
let replace_all ~token ~by s =
  let n = String.length token in
  let b = Buffer.create (String.length s + String.length by) in
  let rec go i =
    match Str_split.find ~from:i ~sub:token s with
    | Some j ->
      Buffer.add_substring b s i (j - i);
      Buffer.add_string b by;
      go (j + n)
    | None -> Buffer.add_substring b s i (String.length s - i)
  in
  go 0;
  Buffer.contents b

let names_origin = function
  | Some value ->
    Str_split.contains ~sub:"$ORIGIN" value
    || Str_split.contains ~sub:"${ORIGIN}" value
  | None -> false

(* ld.so's reading of one rpath entry: $ORIGIN and ${ORIGIN} stand for
   the requester's directory; an entry still relative after that names
   no directory the loader can search. *)
let expand origin entry =
  let entry =
    match origin with
    | Some dir when String.contains entry '$' ->
      replace_all ~token:"${ORIGIN}" ~by:dir
        (replace_all ~token:"$ORIGIN" ~by:dir entry)
    | _ -> entry
  in
  if String.length entry > 0 && entry.[0] = '/' then Some entry else None

let entries origin value = List.filter_map (expand origin) (split_path_list value)

(* Search directories for resolving the dependencies of [spec] under
   [env] at [site]; [origin] is the directory of the file [spec] was
   read from, when known. *)
let search_dirs ?origin site env (spec : Feam_elf.Spec.t) =
  let rpath =
    match (spec.rpath, spec.runpath) with
    | Some rpath, None -> entries origin rpath
    | _ -> [] (* DT_RUNPATH disables DT_RPATH *)
  in
  let ld_library_path = List.filter_map (expand None) (Env.ld_library_path env) in
  let runpath =
    match spec.runpath with Some r -> entries origin r | None -> []
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

(* Locate and parse: returns the directory that matched, the resolved
   path, the file's image handle and its spec, parsed through the
   handle, so a repeat lookup hashes nothing. *)
let locate_elf ?reads site dirs name =
  let vfs = Site.vfs site in
  Option.bind
    (List.find_map
       (fun dir ->
         Option.map
           (fun found -> (dir, found))
           (Vfs.resolve_image ?reads vfs (dir ^ "/" ^ name)))
       dirs)
    (fun (dir, (path, image)) ->
      match Feam_elf.Reader.parse_image image with
      | Ok parsed -> Some (dir, path, image, Feam_elf.Reader.spec parsed)
      | Error _ -> None)
