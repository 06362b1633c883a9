(* Provisioning: populates a site's virtual filesystem with the shared
   libraries, release files, tool configuration and MPI stack installs
   that its Table II characteristics imply.  Every installed library is a
   real ELF image built against the *site's* glibc — so copies taken from
   one site carry that site's C-library requirements with them, which is
   what makes half of the paper's resolution attempts fail. *)

open Feam_util
open Feam_sysmodel
open Feam_mpi


(* The ELF image of one catalog library as built/packaged on [site]. *)
let library_image site (entry : Libdb.entry) ~built_with =
  let bits = Site.bits site in
  let libc_name = Soname.to_string Glibc.libc_soname in
  let needed = List.map Soname.to_string entry.Libdb.deps @ [ libc_name ] in
  let libc_versions =
    Glibc.referenced_versions ~bits ~appetite:entry.Libdb.appetite
      ~build:(Site.glibc site)
  in
  let verneeds =
    [ { Feam_elf.Spec.vn_file = libc_name; vn_versions = libc_versions } ]
  in
  let verdefs =
    Soname.to_string entry.Libdb.soname
    ::
    (if entry.Libdb.part_of_glibc then
       Glibc.defined_symbol_versions (Site.glibc site)
     else [])
  in
  let dynsyms =
    Abi.library_dynsyms ~bits ~glibc:(Site.glibc site)
      ~part_of_glibc:entry.Libdb.part_of_glibc ~libc_versions
      (Soname.to_string entry.Libdb.soname)
  in
  let spec =
    Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN
      ~soname:(Soname.to_string entry.Libdb.soname)
      ~needed ~verneeds ~verdefs ~dynsyms
      ~comments:
        [
          Compiler.comment_string built_with;
          Build_id.next site;
        ]
      ~abi_note:(Distro.kernel_triple (Site.distro site))
      (Site.machine site)
  in
  let image = Feam_elf.Reader.image (Feam_elf.Builder.build spec) in
  Build_world.register (Site.world site) (Feam_elf.Reader.image_digest image)
    {
      Provenance.program_name = Soname.to_string entry.Libdb.soname;
      build_site = Site.name site;
      build_glibc = Site.glibc site;
      stack = None;
      compiler = built_with;
      runtime_fragility = 0.0;
      copy_abi_fragility = entry.Libdb.copy_abi_fragility;
      is_probe = false;
      np_rule = `Any;
    };
  image

(* The C library itself: defines every symbol version of its release. *)
let libc_image site : string =
  let verdefs =
    Soname.to_string Glibc.libc_soname
    :: Glibc.defined_symbol_versions (Site.glibc site)
    @ [ "GLIBC_PRIVATE" ]
  in
  let spec =
    Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN
      ~soname:(Soname.to_string Glibc.libc_soname)
      ~verdefs
      ~dynsyms:(Abi.libc_dynsyms ~glibc:(Site.glibc site))
      ~comments:
        [ Printf.sprintf "GNU C Library stable release version %s"
            (Version.to_string (Site.glibc site)) ]
      ~abi_note:(Distro.kernel_triple (Site.distro site))
      (Site.machine site)
  in
  Feam_elf.Builder.build spec

(* Scientific-library generation of a site: enterprise Linux 4/5 ships
   the old FFTW 2 / early HDF5 sonames; newer distributions the new
   ones. *)
let scientific_generation site =
  if Version.major (Distro.version (Site.distro site)) <= 5 then
    Libdb.Old_generation
  else Libdb.New_generation

(* The soname a program linking scientific family [f] gets on [site]. *)
let scientific_soname site f =
  Libdb.scientific_soname f (scientific_generation site)

(* Default compiler used to build distro packages on the site. *)
let distro_compiler site =
  match Site.compiler_of_family site Compiler.Gnu with
  | Some c -> c
  | None -> Compiler.make Compiler.Gnu (Version.of_string_exn "4.1.2")

let install_library site ~dir ~built_with (entry : Libdb.entry) =
  let vfs = Site.vfs site in
  let image = library_image site entry ~built_with in
  let name = Soname.to_string entry.Libdb.soname in
  let path = dir ^ "/" ^ name in
  Vfs.add_image ~declared_size:(Libdb.size_bytes entry) vfs path image;
  (* Development symlink, as ldconfig would maintain (only when the
     soname is versioned; an unversioned soname IS the link name). *)
  let link = Soname.link_name entry.Libdb.soname in
  if link <> name then Vfs.add vfs (dir ^ "/" ^ link) (Vfs.Symlink path)

(* -- Base system -------------------------------------------------------- *)

let provision_base site =
  let vfs = Site.vfs site in
  let gcc = distro_compiler site in
  let primary_dir = List.hd (Site.default_lib_dirs site) in
  let usr_dir =
    match Site.default_lib_dirs site with _ :: d :: _ -> d | _ -> primary_dir
  in
  (* The dynamic loader itself, at the machine's conventional path. *)
  let loader_path = Feam_elf.Types.default_interp (Site.machine site) in
  let loader_spec =
    Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN
      ~soname:(Vfs.basename loader_path)
      ~comments:[ "GNU C Library dynamic loader" ]
      (Site.machine site)
  in
  Vfs.add
    ~declared_size:(int_of_float (0.15 *. 1024.0 *. 1024.0))
    vfs loader_path
    (Vfs.Elf (Feam_elf.Builder.build loader_spec));
  (* C library binary (runnable: prints its banner). *)
  Vfs.add
    ~declared_size:(int_of_float (1.7 *. 1024.0 *. 1024.0))
    vfs
    (primary_dir ^ "/" ^ Soname.to_string Glibc.libc_soname)
    (Vfs.Elf (libc_image site));
  List.iter (install_library site ~dir:primary_dir ~built_with:gcc) Libdb.base_system;
  install_library site ~dir:primary_dir ~built_with:gcc Libdb.libgcc_s;
  install_library site ~dir:usr_dir ~built_with:gcc Libdb.libstdcxx;
  List.iter
    (install_library site ~dir:usr_dir ~built_with:gcc)
    (Libdb.gnu_fortran_runtime (Compiler.version gcc));
  (* Enterprise-Linux 5.x shipped compatibility runtimes for binaries
     built by older GCC releases (compat-libf2c-34): libg2c.so.0 is
     present there even though the native compiler is gcc 4.x. *)
  (match Distro.flavor (Site.distro site) with
  | Distro.Rhel | Distro.Centos
    when Version.major (Distro.version (Site.distro site)) = 5 ->
    List.iter
      (install_library site ~dir:usr_dir ~built_with:gcc)
      (Libdb.gnu_fortran_runtime (Version.of_string_exn "3.4.6"))
  | Distro.Rhel | Distro.Centos | Distro.Sles -> ());
  (* Site-local scientific libraries, in the site's generation. *)
  List.iter
    (fun family ->
      install_library site ~dir:usr_dir ~built_with:gcc
        (Libdb.scientific_entry family (scientific_generation site)))
    Libdb.scientific_families;
  (* InfiniBand user space only where the fabric exists. *)
  if Interconnect.equal (Site.interconnect site) Interconnect.Infiniband then
    List.iter (install_library site ~dir:usr_dir ~built_with:gcc) Libdb.infiniband_libs;
  (* Release file and /proc/version are what the EDC reads. *)
  let release_path, release_body = Distro.release_file (Site.distro site) in
  Vfs.add vfs release_path (Vfs.Text release_body);
  Vfs.add vfs "/proc/version"
    (Vfs.Text (Distro.proc_version (Site.distro site) ~machine:(Site.machine site)))

(* -- Compiler suites ----------------------------------------------------- *)

let compiler_prefix compiler =
  Printf.sprintf "/opt/%s-%s"
    (Compiler.family_slug (Compiler.family compiler))
    (Version.to_string (Compiler.version compiler))

let provision_compiler site compiler =
  match Compiler.family compiler with
  | Compiler.Gnu -> () (* distro-packaged; installed by provision_base *)
  | Compiler.Intel | Compiler.Pgi ->
    let dir = compiler_prefix compiler ^ "/lib" in
    let runtime =
      match Compiler.family compiler with
      | Compiler.Intel -> Libdb.intel_runtime
      | Compiler.Pgi -> Libdb.pgi_runtime (Compiler.version compiler)
      | Compiler.Gnu -> []
    in
    List.iter (install_library site ~dir ~built_with:compiler) runtime;
    (* Administrators register vendor runtime directories with the
       dynamic linker cache. *)
    Site.add_ld_conf_dir site dir

(* -- MPI stacks ---------------------------------------------------------- *)

let wrapper_script install name =
  let stack = Stack_install.stack install in
  Printf.sprintf
    "#!/bin/sh\n# %s wrapper for %s\nexec %s/%s.real \"$@\"\n" name
    (Stack.to_string stack)
    (Stack_install.bin_dir install)
    name

let provision_stack site ?(health = Stack_install.Functioning)
    ?(registered = true) stack =
  let prefix = "/opt/" ^ Stack.slug stack in
  let install = Stack_install.make ~health ~registered ~prefix stack in
  let vfs = Site.vfs site in
  let lib_dir = Stack_install.lib_dir install in
  List.iter
    (install_library site ~dir:lib_dir ~built_with:(Stack.compiler stack))
    (Libdb.mpi_entries stack);
  List.iter
    (fun name ->
      Vfs.add vfs
        (Stack_install.bin_dir install ^ "/" ^ name)
        (Vfs.Script (wrapper_script install name)))
    Stack.wrapper_names;
  (* The launcher lives beside the wrappers. *)
  Vfs.add vfs
    (Stack_install.bin_dir install ^ "/" ^ Stack.default_launcher)
    (Vfs.Script "#!/bin/sh\n# mpiexec\n");
  Site.add_stack_install site install;
  install

(* -- Whole site ---------------------------------------------------------- *)

(* Provision base system, every native compiler suite, and the given MPI
   stacks; then materialize the user-environment tool's database. *)
let provision_site site ~stacks =
  provision_base site;
  List.iter (provision_compiler site) (Site.compilers site);
  let installs =
    List.map
      (fun (stack, health) -> provision_stack site ~health stack)
      stacks
  in
  Modules_tool.provision site;
  installs
