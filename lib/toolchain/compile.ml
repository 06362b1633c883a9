(* Compile simulator: what `mpicc`/`mpif90` under a given stack produce on
   a given site.  The output is a real ELF image whose dependency set,
   symbol-version references and .comment provenance strings follow from
   the stack, the compiler family and the site's glibc — the exact
   channels the prediction model later reads.

   Every compile makes its image in two steps: a template (the spec
   built with a placeholder where the build ID goes, and the provenance
   record) and a stamp (a copy of the template's bytes with a fresh
   build ID written over the placeholder, registered with that
   provenance).  Two compiles of the same inputs differ only in the
   build ID, so a [templates] table lets a caller that compiles the same
   image again skip the first step. *)

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

(* -- Templates and stamps --------------------------------------------- *)

(* An image whose build ID is {!Build_id.placeholder} at [id_offset],
   and the provenance of every image stamped from it. *)
type template = {
  bytes : string;
  id_offset : int;
  provenance : Provenance.t;
}

let template ?stack site ~needed ~compiler program =
  let bits = Site.bits site in
  let libc_versions =
    Glibc.referenced_versions ~bits ~appetite:program.glibc_appetite
      ~build:(Site.glibc site)
  in
  let dynsyms =
    Abi.binary_dynsyms ~bits ~glibc:(Site.glibc site) ~libc_versions ~needed
  in
  let toolchain = toolchain_comments site compiler in
  let spec =
    Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_EXEC ~needed
      ~verneeds:(verneeds_for site program) ~dynsyms
      ~comments:(toolchain @ [ Build_id.placeholder ])
      ~abi_note:(Distro.kernel_triple (Site.distro site))
      ~interp:(Feam_elf.Types.default_interp (Site.machine site))
      (Site.machine site)
  in
  let bytes, comment_offset = Feam_elf.Builder.build_placed spec in
  {
    bytes;
    (* each comment is followed by its NUL *)
    id_offset =
      List.fold_left (fun off c -> off + String.length c + 1) comment_offset
        toolchain;
    provenance =
      {
        Provenance.program_name = program.prog_name;
        build_site = Site.name site;
        build_glibc = Site.glibc site;
        stack;
        compiler;
        runtime_fragility = program.runtime_fragility;
        copy_abi_fragility = 0.0;
        is_probe = program.is_probe;
        np_rule = program.np_rule;
      };
  }

(* A fresh build of [t]: its bytes with the next build ID over the
   placeholder. *)
let stamp t =
  let image = Bytes.of_string t.bytes in
  Bytes.blit_string
    (Build_id.next ~site_name:t.provenance.Provenance.build_site)
    0 image t.id_offset (String.length Build_id.placeholder);
  let image = Bytes.unsafe_to_string image in
  Provenance.register image t.provenance;
  image

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

module Template_table = Hashtbl.Make (struct
  type t = template_key

  let equal = ( = )

  (* deep enough to reach the stack and the program *)
  let hash = Hashtbl.hash_param 64 256
end)

type templates = template Template_table.t

let create_templates () : templates = Template_table.create 64

let build_image ?templates ?stack site ~needed ~compiler program =
  let make () = template ?stack site ~needed ~compiler program in
  stamp
    (match templates with
    | None -> make ()
    | Some table -> (
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
      match Template_table.find_opt table key with
      | Some t ->
        Feam_obs.Metrics.incr "toolchain.template.hit";
        t
      | None ->
        Feam_obs.Metrics.incr "toolchain.template.miss";
        let t = make () in
        Template_table.add table key t;
        t))

(* [compile_mpi ?clock ?templates site install program] — run the
   stack's compiler wrapper on [program] at [site]. *)
let compile_mpi ?clock ?templates site install program =
  let stack = Stack_install.stack install in
  let wrapper =
    match program.language with Stack.C -> "mpicc" | Stack.Fortran -> "mpif90"
  in
  let wrapper_path = Stack_install.bin_dir install ^ "/" ^ wrapper in
  if not (Vfs.exists (Site.vfs site) wrapper_path) then
    Error (Wrapper_missing wrapper)
  else begin
    Cost.charge clock Cost.compile_mpi;
    let needed =
      List.map Soname.to_string
        (Stack.needed_libs stack program.language @ program.extra_libs)
      @ base_needed
    in
    Ok
      (build_image ?templates ~stack site ~needed
         ~compiler:(Stack.compiler stack) program)
  end

(* [compile_serial ?clock site program] — native `cc` on the login node,
   used for probe programs.  Requires a native compiler. *)
let compile_serial ?clock site program =
  if not (Site.tools site).Tools.c_compiler then Error Compiler_unavailable
  else begin
    Cost.charge clock Cost.compile_serial;
    let compiler = Provision.distro_compiler site in
    let needed = List.map Soname.to_string program.extra_libs @ base_needed in
    Ok (build_image site ~needed ~compiler program)
  end

let declared_size program =
  int_of_float (program.binary_size_mb *. 1024.0 *. 1024.0)

(* Compile and install the binary into the site's filesystem (a user's
   home or scratch directory), returning its path. *)
let compile_mpi_to ?clock ?templates site install program ~dir =
  match compile_mpi ?clock ?templates site install program with
  | Error _ as e -> e
  | Ok image ->
    let path = dir ^ "/" ^ program.prog_name in
    Vfs.add ~declared_size:(declared_size program) (Site.vfs site) path
      (Vfs.Elf image);
    Ok path
