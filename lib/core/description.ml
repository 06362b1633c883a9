(* The Binary Description Component's output record: the information
   paper Figure 3 lists — ISA and file format, library name/version when
   the binary is itself a shared library, required shared libraries,
   C library version requirements, and the MPI stack / OS / toolchain
   provenance that built the binary. *)

open Feam_util

type t = {
  path : string;
  file_format : string; (* objdump format descriptor, e.g. "elf64-x86-64" *)
  machine : Feam_elf.Types.machine;
  elf_class : Feam_elf.Types.elf_class;
  soname : Soname.t option; (* set when the binary is a shared library *)
  needed : string list;
  rpath : string option;
  runpath : string option;
  verneeds : (string * string list) list;
  (* The binary's *required C library version*: newest glibc symbol
     version referenced (paper §III.C), not the build version. *)
  required_glibc : Version.t option;
  mpi : Mpi_ident.identification option;
  provenance : Objdump_parse.provenance;
}

let required_glibc_of_verneeds verneeds =
  Feam_toolchain.Glibc.required_version (List.concat_map snd verneeds)

let of_dynamic_info ~path ~provenance (info : Objdump_parse.dynamic_info) =
  match Objdump_parse.machine_of_format info.Objdump_parse.file_format with
  | None -> Error ("unrecognized file format: " ^ info.Objdump_parse.file_format)
  | Some (machine, elf_class) ->
    Ok
      {
        path;
        file_format = info.Objdump_parse.file_format;
        machine;
        elf_class;
        soname = Option.bind info.Objdump_parse.soname Soname.of_string;
        needed = info.Objdump_parse.needed;
        rpath = info.Objdump_parse.rpath;
        runpath = info.Objdump_parse.runpath;
        verneeds = info.Objdump_parse.verneeds;
        required_glibc = required_glibc_of_verneeds info.Objdump_parse.verneeds;
        mpi = Mpi_ident.identify info.Objdump_parse.needed;
        provenance;
      }

(* JSON round-trip for the flight recorder's journal.  Same contract
   as the bundle format: primitives are stored and the derived fields
   (machine, required C library version, MPI identification) are
   recomputed on load, so a journal written by one FEAM version parses
   under another as long as the primitives hold. *)

let to_json t =
  let open Json in
  let opt f = function None -> Null | Some v -> Str (f v) in
  Obj
    [
      ("path", Str t.path);
      ("format", Str t.file_format);
      ("soname", opt Soname.to_string t.soname);
      ("needed", List (List.map (fun n -> Str n) t.needed));
      ("rpath", opt Fun.id t.rpath);
      ("runpath", opt Fun.id t.runpath);
      ( "verneeds",
        Obj
          (List.map
             (fun (file, versions) ->
               (file, List (List.map (fun v -> Str v) versions)))
             t.verneeds) );
      ("compiler", opt Fun.id t.provenance.Objdump_parse.compiler_banner);
      ("build_os", opt Fun.id t.provenance.Objdump_parse.build_os);
    ]

let of_json json =
  let open Json in
  let str key = str_field key json in
  match (str "path", str "format") with
  | None, _ -> Error "description: missing path"
  | _, None -> Error "description: missing format"
  | Some path, Some file_format -> (
    match Objdump_parse.machine_of_format file_format with
    | None -> Error ("description: unknown file format: " ^ file_format)
    | Some (machine, elf_class) ->
      let verneeds =
        match member "verneeds" json with
        | Some (Obj fields) ->
          List.map
            (fun (file, versions) ->
              ( file,
                match to_list_opt versions with
                | None -> []
                | Some vs -> List.filter_map to_string_opt vs ))
            fields
        | _ -> []
      in
      let needed = strings_field "needed" json in
      Ok
        {
          path;
          file_format;
          machine;
          elf_class;
          soname = Option.bind (str "soname") Soname.of_string;
          needed;
          rpath = str "rpath";
          runpath = str "runpath";
          verneeds;
          required_glibc = required_glibc_of_verneeds verneeds;
          mpi = Mpi_ident.identify needed;
          provenance =
            {
              Objdump_parse.compiler_banner = str "compiler";
              build_os = str "build_os";
            };
        })

let pp ppf t =
  Fmt.pf ppf
    "@[<v>binary: %s@ format: %s@ soname: %a@ needed: %a@ required C library: \
     %a@ MPI implementation: %a@ built by: %a@ built on: %a@]"
    t.path t.file_format
    Fmt.(option ~none:(any "-") (using Soname.to_string string))
    t.soname
    Fmt.(list ~sep:(any ", ") string)
    t.needed
    Fmt.(option ~none:(any "unknown") (using Version.to_string string))
    t.required_glibc
    Fmt.(
      option ~none:(any "none detected")
        (using (fun i -> Feam_mpi.Impl.name i.Mpi_ident.impl) string))
    t.mpi
    Fmt.(option ~none:(any "unknown") string)
    t.provenance.Objdump_parse.compiler_banner
    Fmt.(option ~none:(any "unknown") string)
    t.provenance.Objdump_parse.build_os
