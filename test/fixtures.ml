(* Shared test fixtures: small provisioned sites and binaries used across
   the per-module suites.  Each call builds fresh state so tests stay
   independent. *)

open Feam_util
open Feam_mpi
open Feam_sysmodel
open Feam_toolchain

let v = Version.of_string_exn

let gnu412 = Compiler.make Compiler.Gnu (v "4.1.2")
let gnu445 = Compiler.make Compiler.Gnu (v "4.4.5")
let intel11 = Compiler.make Compiler.Intel (v "11.1")

let ompi14 compiler =
  Stack.make ~impl:Impl.Open_mpi ~impl_version:(v "1.4") ~compiler
    ~interconnect:Interconnect.Ethernet

let mvapich2 compiler =
  Stack.make ~impl:Impl.Mvapich2 ~impl_version:(v "1.7a2") ~compiler
    ~interconnect:Interconnect.Infiniband

let mpich2 compiler =
  Stack.make ~impl:Impl.Mpich2 ~impl_version:(v "1.4") ~compiler
    ~interconnect:Interconnect.Ethernet

let default_batch =
  Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 5.0 } ]

(* The build world every fixture site joins, so a binary or library
   staged from one test site to another keeps its provenance. *)
let world = Build_world.create ()

(* A small fully-provisioned x86-64 site with one healthy Open MPI stack
   and one MVAPICH2 stack. *)
let small_site ?(name = "testbed") ?(glibc = "2.5") ?(tools = Tools.full)
    ?(modules_flavor = Site.Environment_modules)
    ?(interconnect = Interconnect.Infiniband)
    ?(machine = Feam_elf.Types.X86_64) ?(stacks = None) ?fault_model () =
  let site =
    Site.make ~world ~description:"unit-test site" ~tools ~modules_flavor
      ~compilers:[ gnu412; intel11 ] ~seed:7 ~machine ?fault_model
      ~distro:(Distro.make Distro.Centos ~version:(v "5.6") ~kernel:(v "2.6.18"))
      ~glibc:(v glibc) ~interconnect ~batch:default_batch name
  in
  let stacks =
    match stacks with
    | Some s -> s
    | None ->
      [
        (ompi14 gnu412, Stack_install.Functioning);
        (mvapich2 intel11, Stack_install.Functioning);
      ]
  in
  let installs = Provision.provision_site site ~stacks in
  (site, installs)

(* A site with an old C library (the "Ranger" wall). *)
let old_glibc_site ?(name = "oldsite") () =
  small_site ~name ~glibc:"2.3.4" ()

(* A PowerPC site: exercises ISA incompatibility. *)
let ppc_site ?(name = "ppcsite") () =
  small_site ~name ~machine:Feam_elf.Types.PPC64 ()

(* Compile a simple C MPI program at a site with its first stack. *)
let compiled_binary ?(program = Feam_toolchain.Compile.program "app") site
    installs =
  let install = List.hd installs in
  match
    Compile.compile_mpi_to site install program ~dir:"/home/user/apps"
  with
  | Ok path -> (path, install)
  | Error e -> Alcotest.failf "fixture compile failed: %s" (Compile.error_to_string e)

let fortran_program =
  Feam_toolchain.Compile.program ~language:Stack.Fortran "fapp"

(* Environment with a stack loaded. *)
let session_env site install =
  Modules_tool.load_stack (Site.base_env site) install

let run_exn = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* Alcotest testables. *)
let version = Alcotest.testable Version.pp Version.equal
(* Where an ldd resolution found a DT_NEEDED name, as ldd prints
   "name => path". *)
let ldd_path (r : Feam_dynlinker.Resolve.t) name =
  List.find_map
    (fun (l : Feam_dynlinker.Resolve.resolved_lib) ->
      if l.lib_name = name then Some l.lib_path else None)
    r.resolved

(* A not-ready prediction that says nothing else, for code that reads
   only the verdict. *)
let not_ready reason =
  {
    Feam_core.Predict.verdict = Feam_core.Predict.Not_ready [ reason ];
    determinants =
      {
        Feam_core.Predict.isa =
          {
            Feam_core.Predict.isa_compatible = true;
            binary_machine = Feam_elf.Types.X86_64;
            binary_class = Feam_elf.Types.C64;
            site_machine = Some Feam_elf.Types.X86_64;
          };
        stack = None;
        clib =
          {
            Feam_core.Predict.clib_compatible = true;
            required = None;
            available = None;
          };
        libs = None;
      };
  }

(* A serial hello world, as the probes build one. *)
let hello_serial =
  Compile.program ~is_probe:true ~uses_mpi:false
    ~glibc_appetite:(Version.of_string_exn "2.0")
    ~binary_size_mb:0.01 "hello_serial"

(* A benchmark of the paper's test set, by name. *)
let npb name =
  List.find (fun b -> b.Feam_suites.Benchmark.bench_name = name) Feam_suites.Npb.all

let spec_mpi name =
  List.find (fun b -> b.Feam_suites.Benchmark.bench_name = name) Feam_suites.Specmpi.all

let all_impls = [ Impl.Open_mpi; Impl.Mvapich2; Impl.Mpich2 ]

let parse_elf bytes =
  match Feam_elf.Reader.parse bytes with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %s" (Feam_elf.Reader.error_to_string e)

let same_key a b = Chash.compare a b = 0
let soname = Alcotest.testable (Fmt.of_to_string Soname.to_string) ( = )

(* -- Site integrity ------------------------------------------------------------ *)

let file_line vfs path =
  match Vfs.entry vfs path with
  | None -> path ^ " missing"
  | Some { Vfs.kind; declared_size } ->
    let tag, body =
      match kind with
      | Vfs.Elf b -> ("elf", b)
      | Vfs.Script b -> ("script", b)
      | Vfs.Text b -> ("text", b)
      | Vfs.Symlink b -> ("symlink", b)
    in
    Printf.sprintf "%s %s %d %s" path tag declared_size
      (Digest.to_hex (Digest.string body))

(* One line per site: its name, the digest of its sorted files (path,
   kind, bytes, declared size, as stored: a symlink is its target path,
   not the file it leads to) and the mutable state the loader and the
   modules tool read — whether ld.so.cache is current, the ld.so.conf
   directories and the installed stacks' slugs. *)
let site_digest sites =
  List.map
    (fun site ->
      let vfs = Site.vfs site in
      String.concat " "
        [
          Site.name site;
          Digest.to_hex
            (Digest.string
               (String.concat "\n" (List.map (file_line vfs) (Vfs.find_by_basename vfs (fun _ -> true)))));
          "ld_cache_current=" ^ string_of_bool (Site.ld_cache_current site);
          "ld_conf_dirs=" ^ String.concat ":" (Site.ld_conf_dirs site);
          "stacks="
          ^ String.concat ","
              (List.map
                 (fun i -> Stack.slug (Stack_install.stack i))
                 (Site.stack_installs site));
        ])
    sites

(* A spec, every field on its own line: the fuzz corpora's golden digests
   and the property tests' counterexamples print specs this way. *)
let pp_spec ppf (t : Feam_elf.Spec.t) =
  let open Feam_elf in
  let pp_verneed ppf (vn : Spec.verneed) =
    Fmt.pf ppf "@[<h>%s: %a@]" vn.vn_file Fmt.(list ~sep:(any ", ") string) vn.vn_versions
  in
  let pp_dynsym ppf (s : Spec.dynsym) =
    Fmt.pf ppf "%s%s %s%s"
      (if s.sym_defined then "" else "U ")
      (Spec.binding_to_string s.sym_binding)
      s.sym_name
      (match s.sym_version with Some v -> "@" ^ v | None -> "")
  in
  Fmt.pf ppf
    "@[<v>class: %a@ endian: %s@ machine: %s@ type: %s@ soname: %a@ needed: \
     %a@ rpath: %a@ runpath: %a@ verneeds: %a@ verdefs: %a@ dynsyms: %a@ \
     comments: %a@]"
    Types.pp_class t.elf_class
    (match t.endian with Types.LE -> "little-endian" | Types.BE -> "big-endian")
    (Types.machine_name t.machine)
    (match t.file_type with
    | Types.ET_EXEC -> "EXEC (Executable file)"
    | Types.ET_DYN -> "DYN (Shared object file)")
    Fmt.(option ~none:(any "-") string) t.soname
    Fmt.(list ~sep:(any ", ") string) t.needed
    Fmt.(option ~none:(any "-") string) t.rpath
    Fmt.(option ~none:(any "-") string) t.runpath
    Fmt.(list ~sep:(any "; ") pp_verneed) t.verneeds
    Fmt.(list ~sep:(any ", ") string) t.verdefs
    Fmt.(list ~sep:(any "; ") pp_dynsym) t.dynsyms
    Fmt.(list ~sep:(any " | ") string) t.comments
