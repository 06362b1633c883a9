(* Recursive dependency resolution: the load-time half of the ground
   truth.  Walks the DT_NEEDED closure of a binary under given search
   semantics, checking class/machine of every object and every GNU
   symbol-version requirement against the providers actually found. *)

type resolved_lib = {
  lib_name : string;   (* the requested DT_NEEDED string *)
  lib_path : string;   (* where it was found *)
  lib_spec : Feam_elf.Spec.t;
  lib_image : Feam_elf.Reader.image; (* the handle, for its digest on demand *)
}

type version_failure = {
  vf_object : string;   (* object that required the version *)
  vf_provider : string; (* closure member consulted for the version *)
  vf_scope_pos : int option; (* the provider's position in load order *)
  vf_version : string;  (* the version name, e.g. GLIBC_2.7 *)
}

type arch_mismatch = {
  am_lib : string;
  am_path : string;
}

type t = {
  root_spec : Feam_elf.Spec.t;
  resolved : resolved_lib list;       (* transitive closure, load order *)
  missing : string list;              (* DT_NEEDED names never located *)
  arch_mismatches : arch_mismatch list;
  version_failures : version_failure list;
}

let ok t = t.missing = [] && t.arch_mismatches = [] && t.version_failures = []

(* The object ld.so would consult for versions required from [file]: the
   first closure member, in load order, that was loaded under that name
   or whose DT_SONAME claims it.  Shared with symcheck so that both
   analyses agree on which object was consulted. *)
let consulted_provider resolved file =
  let rec go pos = function
    | [] -> None
    | r :: rest ->
      if r.lib_name = file || r.lib_spec.Feam_elf.Spec.soname = Some file then
        Some (pos, r)
      else go (pos + 1) rest
  in
  go 0 resolved

(* The closure walk: [walk ?reads ?origin site env root] resolves the
   dependency closure of an object whose parsed spec is [root], read
   from a file in directory [origin] when known.  Each dependency is
   searched with its requester's own DT_RPATH chain, then the root
   object's search directories, an adequate approximation of ld.so's
   per-object rpath stacking.  A requester's list is built once, when
   the first of its names is searched for.  A dependency's $ORIGIN is
   the directory of the name as searched, symlinks not followed, as
   ld.so takes it from the path it opened; only the root's is the
   caller's real path.  Every lookup is tracked in [reads] when
   given. *)
let walk ?reads ?origin site env (root : Feam_elf.Spec.t) =
  let root_dirs = Search.search_dirs ?origin site env root in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let resolved = ref [] in
  let missing = ref [] in
  let arch_mismatches = ref [] in
  let rec visit dirs name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      match Search.locate_elf ?reads site (Lazy.force dirs) name with
      | None -> missing := name :: !missing
      | Some (dir, path, image, spec) ->
        if spec.elf_class <> root.elf_class || spec.machine <> root.machine
        then arch_mismatches := { am_lib = name; am_path = path } :: !arch_mismatches
        else begin
          resolved :=
            {
              lib_name = name;
              lib_path = path;
              lib_spec = spec;
              lib_image = image;
            }
            :: !resolved;
          List.iter
            (visit
               (lazy
                 (Search.search_dirs
                    ~origin:(Feam_sysmodel.Vfs.dirname (dir ^ "/" ^ name))
                    site env spec
                 @ root_dirs)))
            spec.needed
        end
    end
  in
  List.iter (visit (Lazy.from_val root_dirs)) root.needed;
  let resolved = List.rev !resolved in
  (* Version-requirement check: every verneed of the root and of each
     resolved library must be satisfied by the verdefs of the closure
     member actually consulted for that name — the first in load order
     loaded under the name or claiming it by soname, whose position is
     recorded alongside the failure.  The closure is indexed once:
     each name to the member [consulted_provider] would find, and each
     consulted member's verdefs as a set, built on first use. *)
  let providers : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let claim pos name =
    if not (Hashtbl.mem providers name) then Hashtbl.add providers name pos
  in
  List.iteri
    (fun pos r ->
      claim pos r.lib_name;
      Option.iter (claim pos) r.lib_spec.Feam_elf.Spec.soname)
    resolved;
  let members = Array.of_list resolved in
  let verdef_sets = Array.make (Array.length members) None in
  let verdefs pos =
    match verdef_sets.(pos) with
    | Some set -> set
    | None ->
      let defs = members.(pos).lib_spec.Feam_elf.Spec.verdefs in
      let set = Hashtbl.create (List.length defs) in
      List.iter (fun d -> Hashtbl.replace set d ()) defs;
      verdef_sets.(pos) <- Some set;
      set
  in
  let check_object obj_name (spec : Feam_elf.Spec.t) =
    List.concat_map
      (fun vn ->
        match Hashtbl.find_opt providers vn.Feam_elf.Spec.vn_file with
        | None -> [] (* provider missing entirely: reported in [missing] *)
        | Some pos ->
          let provider = members.(pos) in
          let defs = verdefs pos in
          vn.Feam_elf.Spec.vn_versions
          |> List.filter (fun v -> not (Hashtbl.mem defs v))
          |> List.map (fun v ->
                 {
                   vf_object = obj_name;
                   vf_provider = provider.lib_name;
                   vf_scope_pos = Some pos;
                   vf_version = v;
                 }))
      spec.verneeds
  in
  let version_failures =
    check_object "a.out" root
    @ List.concat_map (fun r -> check_object r.lib_name r.lib_spec) resolved
  in
  {
    root_spec = root;
    resolved;
    missing = List.rev !missing;
    arch_mismatches = List.rev !arch_mismatches;
    version_failures;
  }

(* Journal a resolution: the load order with each provider's scope
   position is the evidence the version check and symcheck verdicts
   rest on. *)
let journal result =
  let open Feam_util in
  Feam_flightrec.Recorder.evidence ~stage:"dynlinker" ~kind:"resolve"
    (fun () ->
      [
        ( "resolved",
          Json.List
            (List.mapi
               (fun pos r ->
                 Json.Obj
                   [
                     ("library", Json.Str r.lib_name);
                     ("path", Json.Str r.lib_path);
                     ("position", Json.Int pos);
                   ])
               result.resolved) );
        ("missing", Json.List (List.map (fun m -> Json.Str m) result.missing));
        ( "arch_mismatches",
          Json.List
            (List.map (fun m -> Json.Str m.am_lib) result.arch_mismatches) );
        ( "version_failures",
          Json.List
            (List.map
               (fun vf ->
                 Json.Obj
                   [
                     ("object", Json.Str vf.vf_object);
                     ("provider", Json.Str vf.vf_provider);
                     ( "provider_position",
                       match vf.vf_scope_pos with
                       | Some p -> Json.Int p
                       | None -> Json.Null );
                     ("version", Json.Str vf.vf_version);
                   ])
               result.version_failures) );
      ])

(* -- the closure memo (DESIGN §21) --------------------------------------- *)

(* Everything a walk reads besides the files: the root's loader-relevant
   fields, its directory when its own search path names $ORIGIN, and
   the search path's other parts. *)
type key = {
  k_class : Feam_elf.Types.elf_class;
  k_machine : Feam_elf.Types.machine;
  k_needed : string list;
  k_verneeds : Feam_elf.Spec.verneed list;
  k_rpath : string option;
  k_runpath : string option;
  k_origin : string option;
  k_ld_library_path : string list;
  k_cache_dirs : string list;
  k_default_dirs : string list;
}

module Keys = Hashtbl.Make (struct
  type t = key

  let equal = ( = )

  (* deep enough to see past the first few needed names *)
  let hash = Hashtbl.hash_param 64 256
end)

(* A walk's closure and the directories it consulted, with their
   versions: the entry holds while none of them moved. *)
type entry = { reads : Feam_sysmodel.Vfs.reads; closure : t }

(* One site name's entries, all read from [vfs]. *)
type held = { vfs : Feam_sysmodel.Vfs.t; entries : entry Keys.t }

type memo = (string, held) Hashtbl.t (* by site name *)

let create_memo () : memo = Hashtbl.create 8

let key ?origin site env (root : Feam_elf.Spec.t) =
  {
    k_class = root.elf_class;
    k_machine = root.machine;
    k_needed = root.needed;
    k_verneeds = root.verneeds;
    k_rpath = root.rpath;
    k_runpath = root.runpath;
    k_origin =
      (if Search.names_origin root.rpath || Search.names_origin root.runpath
       then origin
       else None);
    k_ld_library_path = Feam_sysmodel.Env.ld_library_path env;
    k_cache_dirs = Feam_sysmodel.Site.ld_cache_dirs site;
    k_default_dirs = Feam_sysmodel.Site.default_lib_dirs site;
  }

(* The entries held for [site]'s name, dropped first when they were
   read from another file system: a rebuilt world under the same
   names. *)
let held (memo : memo) site =
  let vfs = Feam_sysmodel.Site.vfs site in
  let name = Feam_sysmodel.Site.name site in
  match Hashtbl.find_opt memo name with
  | Some held when held.vfs == vfs -> held
  | Some _ | None ->
    let held = { vfs; entries = Keys.create 64 } in
    Hashtbl.replace memo name held;
    held

let run ?closures ?path site env root =
  let origin = Option.map Feam_sysmodel.Vfs.dirname path in
  let result =
    match closures with
    | None -> walk ?origin site env root
    | Some memo -> (
      let key = key ?origin site env root in
      let held = held memo site in
      match Keys.find_opt held.entries key with
      | Some entry when Feam_sysmodel.Vfs.unchanged entry.reads ->
        Feam_obs.Metrics.incr "dynlinker.closure_memo.hit";
        { entry.closure with root_spec = root }
      | Some _ | None ->
        Feam_obs.Metrics.incr "dynlinker.closure_memo.miss";
        let reads = Feam_sysmodel.Vfs.reads () in
        let closure = walk ~reads ?origin site env root in
        Keys.replace held.entries key { reads; closure };
        closure)
  in
  journal result;
  result
