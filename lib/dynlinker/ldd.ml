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

let error_to_string = function
  | `Tool_unavailable t -> t ^ ": command not found"
  | `No_such_file p -> p ^ ": No such file or directory"
  | `Not_dynamic p -> "\tnot a dynamic executable (" ^ p ^ ")"

let run ?clock site env path =
  if not (Site.tools site).Tools.ldd then Error (`Tool_unavailable "ldd")
  else begin
    Cost.charge clock Cost.ldd_call;
    let vfs = Site.vfs site in
    match Vfs.resolve_image vfs path with
    | None when Vfs.exists vfs path -> Error (`Not_dynamic path)
    | None -> Error (`No_such_file path)
    | Some (_, image) -> (
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
        else Ok (Resolve.run site env spec))
  end

(* Render the classic ldd text output. *)
let render path (resolution : Resolve.t) =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let root_needed = resolution.Resolve.root_spec.Feam_elf.Spec.needed in
  List.iter
    (fun name ->
      match
        List.find_opt (fun r -> r.Resolve.lib_name = name) resolution.Resolve.resolved
      with
      | Some r -> addf "\t%s => %s (0x00002b1a00000000)\n" name r.Resolve.lib_path
      | None -> addf "\t%s => not found\n" name)
    root_needed;
  (* Transitively discovered libraries beyond the root's direct needs. *)
  List.iter
    (fun r ->
      if not (List.mem r.Resolve.lib_name root_needed) then
        addf "\t%s => %s (0x00002b1a00000000)\n" r.Resolve.lib_name r.Resolve.lib_path)
    resolution.Resolve.resolved;
  List.iter
    (fun m -> addf "\t%s => not found\n" m)
    (List.filter (fun m -> not (List.mem m root_needed)) resolution.Resolve.missing);
  addf "\n\tVersion information:\n\t%s:\n" path;
  List.iter
    (fun vn ->
      List.iter
        (fun v ->
          let consulted =
            Resolve.consulted_provider resolution.Resolve.resolved
              vn.Feam_elf.Spec.vn_file
          in
          let satisfied =
            not
              (List.exists
                 (fun f ->
                   f.Resolve.vf_version = v
                   &&
                   match consulted with
                   | Some (_, r) -> f.Resolve.vf_provider = r.Resolve.lib_name
                   | None -> f.Resolve.vf_provider = vn.Feam_elf.Spec.vn_file)
                 resolution.Resolve.version_failures)
          in
          let provider_path =
            Option.map (fun (_, r) -> r.Resolve.lib_path) consulted
          in
          match (satisfied, provider_path) with
          | true, Some p -> addf "\t\t%s (%s) => %s\n" vn.Feam_elf.Spec.vn_file v p
          | _ -> addf "\t\t%s (%s) => not found\n" vn.Feam_elf.Spec.vn_file v)
        vn.Feam_elf.Spec.vn_versions)
    resolution.Resolve.root_spec.Feam_elf.Spec.verneeds;
  Buffer.contents buf

(* Names of direct or transitive dependencies that could not be located:
   what the EDC uses to list missing shared libraries. *)
let missing_libraries (resolution : Resolve.t) = resolution.Resolve.missing
