(* A simulated computing site: everything the paper's Table II records
   about a target environment, backed by a virtual filesystem that holds
   real ELF images for every installed shared library.

   A site is the unit both FEAM and the ground-truth executor operate on;
   neither ever sees simulator internals directly — FEAM goes through the
   tool emulations in {!Utilities}, the executor through the dynamic
   linker's search semantics. *)

open Feam_util
open Feam_mpi

type modules_flavor = Environment_modules | Softenv | No_tool

type t = {
  name : string;
  description : string; (* e.g. "MPP - 62,976 CPUs" *)
  machine : Feam_elf.Types.machine;
  distro : Distro.t;
  glibc : Version.t;
  interconnect : Interconnect.t;
  vfs : Vfs.t;
  base_env : Env.t;
  tools : Tools.t;
  mutable stack_installs : Stack_install.t list;
  (* Extra directories in the dynamic linker's cache (/etc/ld.so.conf):
     compiler runtime locations registered by the administrator. *)
  mutable ld_conf_dirs : string list;
  (* Whether ld.so.cache reflects ld.so.conf: administrators sometimes
     register a directory but forget to run ldconfig, leaving libraries
     on disk yet invisible to the loader. *)
  mutable ld_cache_current : bool;
  modules_flavor : modules_flavor;
  compilers : Compiler.t list; (* natively installed compiler suites *)
  batch : Batch.t;
  seed : int; (* per-site stochastic stream for transient system errors *)
  fault_model : Fault_model.t;
  world : Build_world.t; (* shared with every site built alongside *)
}

let make ?(description = "") ?(tools = Tools.full)
    ?(modules_flavor = Environment_modules) ?(compilers = []) ?(base_env = Env.empty)
    ?(seed = 0) ?(fault_model = Fault_model.default) ~machine ~distro ~glibc
    ~interconnect ~batch ~world name =
  {
    name;
    description;
    machine;
    distro;
    glibc;
    interconnect;
    vfs = Vfs.create ();
    base_env;
    tools;
    stack_installs = [];
    ld_conf_dirs = [];
    ld_cache_current = true;
    modules_flavor;
    compilers;
    batch;
    seed;
    fault_model;
    world;
  }

let name t = t.name
let machine t = t.machine
let distro t = t.distro
let glibc t = t.glibc
let interconnect t = t.interconnect
let vfs t = t.vfs
let base_env t = t.base_env
let tools t = t.tools
let stack_installs t = t.stack_installs
let modules_flavor t = t.modules_flavor
let compilers t = t.compilers
let batch t = t.batch
let fault_model t = t.fault_model
let world t = t.world

let elf_class t = Feam_elf.Types.machine_class t.machine

let bits t = match elf_class t with Feam_elf.Types.C64 -> `B64 | Feam_elf.Types.C32 -> `B32

let add_stack_install t install =
  t.stack_installs <- t.stack_installs @ [ install ]

(* Directories the dynamic loader actually consults: the registered ones
   only when the cache has been rebuilt. *)
let ld_cache_dirs t = if t.ld_cache_current then t.ld_conf_dirs else []

let ld_conf_dirs t = t.ld_conf_dirs

let ld_cache_current t = t.ld_cache_current

let set_ld_cache_current t v = t.ld_cache_current <- v

let add_ld_conf_dir t dir =
  if not (List.mem dir t.ld_conf_dirs) then
    t.ld_conf_dirs <- t.ld_conf_dirs @ [ dir ]

let find_stack_install t ~slug =
  List.find_opt (fun i -> Stack.slug (Stack_install.stack i) = slug) t.stack_installs

(* System default library directories for this site's word size. *)
let default_lib_dirs t = Distro.default_lib_dirs ~bits:(bits t)

(* Installed compiler of a family, if any. *)
let compiler_of_family t family =
  List.find_opt (fun c -> Compiler.family_equal (Compiler.family c) family) t.compilers

(* Per-coordinate deterministic randomness for this site. *)
let keyed_bool t ~p key = Prng.keyed_bool ~seed:t.seed ~p (t.name ^ "/" ^ key)

let pp ppf t =
  Fmt.pf ppf "%s (%s, %s, glibc %a, %s)" t.name
    (Feam_elf.Types.machine_uname t.machine)
    (Distro.name t.distro) Version.pp t.glibc
    (Interconnect.name t.interconnect)
