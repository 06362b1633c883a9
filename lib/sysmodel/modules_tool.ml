(* User-environment management tools: Environment Modules and SoftEnv.
   The EDC consults these to discover which MPI stacks a site offers and
   which stack a shell currently has loaded (paper §V.B). *)

open Feam_mpi

(* Registered module names: one per registered MPI stack install plus one
   per native compiler suite. *)
let available_modules site =
  let stack_modules =
    Site.stack_installs site
    |> List.filter Stack_install.registered
    |> List.map Stack_install.module_name
  in
  let compiler_modules =
    Site.compilers site
    |> List.map (fun c ->
           Printf.sprintf "%s-%s"
             (Compiler.family_slug (Compiler.family c))
             (Feam_util.Version.to_string (Compiler.version c)))
  in
  stack_modules @ compiler_modules

(* `module avail` / `softenv` listing text. *)
let render_avail site =
  match Site.modules_flavor site with
  | Site.No_tool -> None
  | Site.Environment_modules ->
    let lines = available_modules site in
    Some
      ("------------------- /usr/share/Modules/modulefiles -------------------\n"
      ^ String.concat "\n" lines ^ "\n")
  | Site.Softenv ->
    let lines =
      available_modules site |> List.map (fun m -> "+" ^ m)
    in
    Some ("SoftEnv: keys available on this system:\n" ^ String.concat "\n" lines ^ "\n")

(* Materialize tool configuration files into the site's filesystem so the
   EDC's file-presence probes behave like on a real system. *)
let provision site =
  let vfs = Site.vfs site in
  match Site.modules_flavor site with
  | Site.No_tool -> ()
  | Site.Environment_modules ->
    Vfs.add vfs "/usr/share/Modules/init/sh" (Vfs.Text "# modules init\n");
    List.iter
      (fun m ->
        Vfs.add vfs
          ("/usr/share/Modules/modulefiles/" ^ m)
          (Vfs.Text ("#%Module1.0\nmodule-whatis " ^ m ^ "\n")))
      (available_modules site)
  | Site.Softenv ->
    let db =
      available_modules site
      |> List.map (fun m -> "+" ^ m)
      |> String.concat "\n"
    in
    Vfs.add vfs "/etc/softenv/softenv.db" (Vfs.Text (db ^ "\n"))

(* Load a stack's module into an environment: prepend its bin and lib
   directories to PATH / LD_LIBRARY_PATH and record it as loaded. *)
let load_stack env install =
  let env = Env.prepend_path env "PATH" (Stack_install.bin_dir install) in
  let env = Env.prepend_path env "LD_LIBRARY_PATH" (Stack_install.lib_dir install) in
  let name = Stack_install.module_name install in
  match Env.get env "LOADEDMODULES" with
  | None | Some "" -> Env.set env "LOADEDMODULES" name
  | Some v -> Env.set env "LOADEDMODULES" (v ^ ":" ^ name)

(* `module list` contents of an environment. *)
let loaded_modules env = Env.paths env "LOADEDMODULES"

(* Find the stack install a session currently has loaded, preferring the
   modules listing and falling back to PATH inspection — the same two
   mechanisms the paper describes. *)
let current_stack site env =
  let installs = Site.stack_installs site in
  let by_module =
    loaded_modules env
    |> List.filter_map (fun m ->
           List.find_opt (fun i -> Stack_install.module_name i = m) installs)
  in
  match by_module with
  | install :: _ -> Some install
  | [] ->
    (* PATH fallback: an install whose bin directory is on PATH. *)
    let path_dirs = Env.path env in
    List.find_opt
      (fun i -> List.mem (Stack_install.bin_dir i) path_dirs)
      installs
