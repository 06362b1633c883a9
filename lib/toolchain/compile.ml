(* Compile simulator: what `mpicc`/`mpif90` under a given stack produce on
   a given site.  The output is a real ELF image whose dependency set,
   symbol-version references and .comment provenance strings follow from
   the stack, the compiler family and the site's glibc — the exact
   channels the prediction model later reads.

   Every compile makes a template (the image and its provenance
   record) and registers that provenance in the site's world.  A probe
   takes no serial: its build ID names the template's whole key, and a
   [templates] table keeps its template, so a probe is one handle,
   copied, hashed, parsed and described once per template.  Any other
   build takes its world's next build ID. *)

open Feam_util
open Feam_sysmodel
open Feam_mpi

(* A program source as the toolchain sees it. *)
type program = {
  prog_name : string;
  language : Stack.language;
  uses_mpi : bool;
  (* Newest glibc feature level the source uses: determines the binary's
     required C library version when built on a new-enough system. *)
  glibc_appetite : Version.t;
  extra_libs : Soname.t list; (* e.g. libz, libstdc++ for C++ codes *)
  binary_size_mb : float;
  (* Probability of an application-code defect on a foreign site (FP
     traps etc.); recorded in provenance for the ground-truth executor. *)
  runtime_fragility : float;
  is_probe : bool; (* hello-world scale: immune to load-induced system errors *)
  (* Valid MPI process counts: NPB's BT/SP require perfect squares, the
     kernels powers of two; launching with anything else aborts at
     startup. *)
  np_rule : [ `Any | `Power_of_two | `Square ];
}

let program ?(language = Stack.C) ?(uses_mpi = true)
    ?(glibc_appetite = Version.of_string_exn "2.2.5") ?(extra_libs = [])
    ?(binary_size_mb = 1.0) ?(runtime_fragility = 0.0) ?(is_probe = false)
    ?(np_rule = `Any) prog_name =
  {
    prog_name;
    language;
    uses_mpi;
    glibc_appetite;
    extra_libs;
    binary_size_mb;
    runtime_fragility;
    is_probe;
    np_rule;
  }

(* MPI "hello world" probe sources (paper §V.B: the EDC generates these
   for later stack testing).  Minimal appetite: they exercise only the
   MPI stack, never the C-library frontier. *)
let hello_world_mpi =
  program ~is_probe:true ~glibc_appetite:(Version.of_string_exn "2.0")
    ~binary_size_mb:0.02 "hello_mpi"

(* Fortran variant: generated when the application being described is a
   Fortran code, so that the probe exercises the Fortran MPI bindings
   and the Fortran compiler runtime — including any staged copies of
   them. *)
let hello_world_mpi_fortran =
  program ~is_probe:true ~language:Stack.Fortran
    ~glibc_appetite:(Version.of_string_exn "2.0")
    ~binary_size_mb:0.03 "hello_mpif"

type error =
  | Wrapper_missing of string  (* stack has no such compiler wrapper *)
  | Compiler_unavailable       (* no native serial compiler *)
  | Source_incompatible of string (* source does not build with this stack *)

let error_to_string = function
  | Wrapper_missing w -> Printf.sprintf "wrapper %s not found" w
  | Compiler_unavailable -> "no native compiler available"
  | Source_incompatible why -> "source incompatible: " ^ why

(* Toolchain provenance comments embedded in .comment: compiler banner
   decorated with the distro packaging tag, as real distro toolchains
   do — this is what lets the BDC report the build OS (paper §V.A).
   The build ID follows them. *)
let toolchain_comments site compiler =
  let distro = Site.distro site in
  let compiler_comment =
    match Compiler.family compiler with
    | Compiler.Gnu ->
      Printf.sprintf "GCC: (GNU) %s (%s)"
        (Version.to_string (Compiler.version compiler))
        (Distro.name distro)
    | Compiler.Intel | Compiler.Pgi -> Compiler.comment_string compiler
  in
  [
    compiler_comment;
    Printf.sprintf "GNU ld version 2.17.50.0.6 (%s)" (Distro.name distro);
  ]

let libc_name = Soname.to_string Glibc.libc_soname
let libm_name = Soname.to_string Glibc.libm_soname

let base_needed = [ libm_name; Soname.to_string Glibc.libpthread_soname; libc_name ]

let verneeds_for site program =
  let bits = Site.bits site in
  let build = Site.glibc site in
  let libc_versions =
    Glibc.referenced_versions ~bits ~appetite:program.glibc_appetite ~build
  in
  let libm_versions =
    Glibc.referenced_versions ~bits
      ~appetite:(Glibc.baseline ~bits)
      ~build
  in
  [
    { Feam_elf.Spec.vn_file = libc_name; vn_versions = libc_versions };
    { Feam_elf.Spec.vn_file = libm_name; vn_versions = libm_versions };
  ]

(* -- Templates ---------------------------------------------------------- *)

(* Everything [template] reads, compared by value. *)
type template_key = {
  site_name : string;
  machine : Feam_elf.Types.machine;
  glibc : Version.t;
  distro : Distro.t;
  stack : Stack.t option;
  compiler : Compiler.t;
  needed : string list;
  program : program;
}

(* An image and its provenance. *)
type template = {
  image : Feam_elf.Reader.image;
  provenance : Provenance.t;
}

(* A probe's build ID names its whole key: two probes whose keys differ
   anywhere (Open MPI 1.3 and 1.4 link the same libraries) are distinct
   images, and equal keys give equal bytes in any world. *)
let probe_id key = Build_id.of_string (Marshal.to_string key [ Marshal.No_sharing ])

let template site key =
  let program = key.program in
  let bits = Site.bits site in
  let libc_versions =
    Glibc.referenced_versions ~bits ~appetite:program.glibc_appetite
      ~build:(Site.glibc site)
  in
  let dynsyms =
    Abi.binary_dynsyms ~bits ~glibc:(Site.glibc site) ~libc_versions
      ~needed:key.needed
  in
  let id = if program.is_probe then probe_id key else Build_id.next site in
  let spec =
    Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_EXEC ~needed:key.needed
      ~verneeds:(verneeds_for site program) ~dynsyms
      ~comments:(toolchain_comments site key.compiler @ [ id ])
      ~abi_note:(Distro.kernel_triple (Site.distro site))
      ~interp:(Feam_elf.Types.default_interp (Site.machine site))
      (Site.machine site)
  in
  {
    image = Feam_elf.Reader.image (Feam_elf.Builder.build spec);
    provenance =
      {
        Provenance.program_name = program.prog_name;
        build_site = Site.name site;
        build_glibc = Site.glibc site;
        stack = key.stack;
        compiler = key.compiler;
        runtime_fragility = program.runtime_fragility;
        copy_abi_fragility = 0.0;
        is_probe = program.is_probe;
        np_rule = program.np_rule;
      };
  }

module Template_table = Hashtbl.Make (struct
  type t = template_key

  let equal = ( = )

  (* deep enough to reach the stack and the program *)
  let hash = Hashtbl.hash_param 64 256
end)

type templates = template Template_table.t

let create_templates () : templates = Template_table.create 64

let build_image ?templates ?stack site ~needed ~compiler program =
  let key =
    {
      site_name = Site.name site;
      machine = Site.machine site;
      glibc = Site.glibc site;
      distro = Site.distro site;
      stack;
      compiler;
      needed;
      program;
    }
  in
  let t =
    match templates with
    | Some table when program.is_probe -> (
      match Template_table.find_opt table key with
      | Some t ->
        Feam_obs.Metrics.incr "toolchain.template.hit";
        t
      | None ->
        Feam_obs.Metrics.incr "toolchain.template.miss";
        let t = template site key in
        Template_table.add table key t;
        t)
    | _ -> template site key
  in
  Build_world.register (Site.world site) (Feam_elf.Reader.image_digest t.image)
    t.provenance;
  t.image

(* [compile_mpi ?templates site install program] — run the
   stack's compiler wrapper on [program] at [site]. *)
let compile_mpi ?templates site install program =
  let stack = Stack_install.stack install in
  let wrapper =
    match program.language with Stack.C -> "mpicc" | Stack.Fortran -> "mpif90"
  in
  let wrapper_path = Stack_install.bin_dir install ^ "/" ^ wrapper in
  if not (Vfs.exists (Site.vfs site) wrapper_path) then
    Error (Wrapper_missing wrapper)
  else begin
    Cost.charge Cost.compile_mpi;
    let needed =
      List.map Soname.to_string
        (Stack.needed_libs stack program.language @ program.extra_libs)
      @ base_needed
    in
    Ok
      (build_image ?templates ~stack site ~needed
         ~compiler:(Stack.compiler stack) program)
  end

(* [compile_serial site program] — native `cc` on the login node,
   used for probe programs.  Requires a native compiler. *)
let compile_serial site program =
  if not (Site.tools site).Tools.c_compiler then Error Compiler_unavailable
  else begin
    Cost.charge Cost.compile_serial;
    let compiler = Provision.distro_compiler site in
    let needed = List.map Soname.to_string program.extra_libs @ base_needed in
    Ok (build_image site ~needed ~compiler program)
  end

let declared_size program =
  int_of_float (program.binary_size_mb *. 1024.0 *. 1024.0)

(* Compile and install the binary into the site's filesystem (a user's
   home or scratch directory), returning its path. *)
let compile_mpi_to ?templates site install program ~dir =
  match compile_mpi ?templates site install program with
  | Error _ as e -> e
  | Ok image ->
    let path = dir ^ "/" ^ program.prog_name in
    Vfs.add_image ~declared_size:(declared_size program) (Site.vfs site) path
      image;
    Ok path
