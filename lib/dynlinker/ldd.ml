(* `ldd -v` emulation.  Runs the same resolution as the real dynamic
   linker and renders the familiar text report.  Mirrors ldd's real
   limitation that the paper works around (§V.A): it cannot inspect
   binaries for a foreign architecture ("not a dynamic executable"), so
   FEAM cannot rely on it alone. *)

open Feam_sysmodel

type error =
  [ `Tool_unavailable of string
  | `No_such_file of string
  | `Not_dynamic of string ]

let run ?closures site env path =
  if not (Site.tools site).Tools.ldd then Error (`Tool_unavailable "ldd")
  else begin
    Cost.charge Cost.ldd_call;
    let vfs = Site.vfs site in
    match Vfs.resolve_image vfs path with
    | None when Vfs.exists vfs path -> Error (`Not_dynamic path)
    | None -> Error (`No_such_file path)
    | Some (real_path, image) -> (
      match Feam_elf.Reader.parse_image image with
      | Error _ -> Error (`Not_dynamic path)
      | Ok parsed ->
        let spec = Feam_elf.Reader.spec parsed in
        (* ldd executes the binary under the dynamic linker: it cannot
           handle foreign-architecture objects. *)
        if
          spec.Feam_elf.Spec.machine <> Site.machine site
          || spec.Feam_elf.Spec.elf_class
             <> Feam_elf.Types.machine_class (Site.machine site)
        then Error (`Not_dynamic path)
        else Ok (Resolve.run ?closures ~path:real_path site env spec))
  end

(* Names of direct or transitive dependencies that could not be located:
   what the EDC uses to list missing shared libraries. *)
let missing_libraries (resolution : Resolve.t) = resolution.Resolve.missing
