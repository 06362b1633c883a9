(* A benchmark as the workload generator sees it: the source program
   handed to the toolchain plus its build fragility — not every benchmark
   compiles with every MPI stack combination, as the paper notes when
   explaining why the test set is a subset of the suites (§VI.A). *)

open Feam_util
open Feam_mpi

type suite = Nas | Spec_mpi2007

let suite_name = function Nas -> "NAS" | Spec_mpi2007 -> "SPEC"

type t = {
  bench_name : string;
  suite : suite;
  description : string;
  language : Stack.language;
  glibc_appetite : Version.t; (* newest glibc feature level the code uses *)
  extra_libs : Soname.t list;
  (* Site-local scientific libraries the code links (FFTW, HDF5): the
     concrete soname depends on the build site's distro generation. *)
  lib_families : Feam_toolchain.Libdb.scientific_family list;
  binary_size_mb : float;
  (* Probability a given MPI stack combination fails to build it. *)
  compile_fragility : float;
  (* Probability of application-code defects at a foreign site (FP traps
     on different hardware, data-layout assumptions). *)
  runtime_fragility : float;
  (* Deterministic build exclusions: compiler families the code is known
     not to build with. *)
  incompatible_compilers : Compiler.family list;
  (* Valid MPI process counts at startup. *)
  np_rule : [ `Any | `Power_of_two | `Square ];
}

let make ?(language = Stack.Fortran) ?(glibc_appetite = "2.3.4")
    ?(extra_libs = []) ?(lib_families = []) ?(binary_size_mb = 1.0)
    ?(compile_fragility = 0.0) ?(runtime_fragility = 0.0)
    ?(incompatible_compilers = []) ?(np_rule = `Any) ~suite ~description
    bench_name =
  {
    bench_name;
    suite;
    description;
    language;
    glibc_appetite = Version.of_string_exn glibc_appetite;
    extra_libs;
    lib_families;
    binary_size_mb;
    compile_fragility;
    runtime_fragility;
    incompatible_compilers;
    np_rule;
  }

(* The toolchain's view of the benchmark when built at [site]: scientific
   families resolve to the sonames the site's generation provides. *)
let to_program ~site t =
  let scientific =
    List.map (Feam_toolchain.Provision.scientific_soname site) t.lib_families
  in
  Feam_toolchain.Compile.program ~language:t.language
    ~glibc_appetite:t.glibc_appetite
    ~extra_libs:(t.extra_libs @ scientific)
    ~binary_size_mb:t.binary_size_mb ~runtime_fragility:t.runtime_fragility
    ~np_rule:t.np_rule t.bench_name

(* Does the benchmark build with [stack], given the per-coordinate
   deterministic draw [chance]?  [chance] is the value of a seeded
   Bernoulli with success probability [compile_fragility]. *)
let compiles_with t stack ~fragility_draw =
  (not
     (List.exists
        (Compiler.family_equal (Compiler.family (Stack.compiler stack)))
        t.incompatible_compilers))
  && not fragility_draw
