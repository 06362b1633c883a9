(* Tests for the MPI stack model: implementations, compilers,
   interconnects, stack compatibility and dependency fingerprints. *)

open Feam_util
open Feam_mpi

let v = Version.of_string_exn

let test_impl_slugs () =
  List.iter
    (fun impl ->
      Alcotest.(check bool) (Impl.name impl) true
        (Impl.of_slug (Impl.slug impl) = Some impl))
    Fixtures.all_impls

let test_impl_compat () =
  Alcotest.(check bool) "same type" true
    (Impl.compatible ~binary:Impl.Open_mpi ~site:Impl.Open_mpi);
  Alcotest.(check bool) "different type" false
    (Impl.compatible ~binary:Impl.Open_mpi ~site:Impl.Mvapich2);
  (* MPICH2 and MVAPICH2 share libmpich but are NOT compatible *)
  Alcotest.(check bool) "mpich2 vs mvapich2" false
    (Impl.compatible ~binary:Impl.Mpich2 ~site:Impl.Mvapich2)

let has_base base sonames = List.exists (fun s -> Soname.base s = base) sonames

let test_fingerprints () =
  (* Table I: Open MPI identified by libnsl/libutil, MVAPICH2 by
     libibverbs/libibumad, MPICH2 by absence of the others. *)
  let ompi = Impl.extra_system_libs Impl.Open_mpi in
  Alcotest.(check bool) "ompi libnsl" true (has_base "libnsl" ompi);
  Alcotest.(check bool) "ompi libutil" true (has_base "libutil" ompi);
  let mva = Impl.extra_system_libs Impl.Mvapich2 in
  Alcotest.(check bool) "mvapich ibverbs" true (has_base "libibverbs" mva);
  Alcotest.(check bool) "mvapich ibumad" true (has_base "libibumad" mva);
  Alcotest.(check (list string)) "mpich none" []
    (List.map Soname.to_string (Impl.extra_system_libs Impl.Mpich2))

let test_core_libs () =
  let ompi = Impl.core_libs Impl.Open_mpi ~version:(v "1.4") in
  Alcotest.(check bool) "libmpi" true (has_base "libmpi" ompi);
  let mpich = Impl.core_libs Impl.Mpich2 ~version:(v "1.4") in
  Alcotest.(check bool) "libmpich" true (has_base "libmpich" mpich);
  let mva = Impl.core_libs Impl.Mvapich2 ~version:(v "1.7a2") in
  Alcotest.(check bool) "mvapich uses libmpich too" true (has_base "libmpich" mva)

let test_compiler_runtimes () =
  let gnu34 = Compiler.make Compiler.Gnu (v "3.4.6") in
  let gnu41 = Compiler.make Compiler.Gnu (v "4.1.2") in
  let gnu44 = Compiler.make Compiler.Gnu (v "4.4.5") in
  let intel = Compiler.make Compiler.Intel (v "11.1") in
  let pgi = Compiler.make Compiler.Pgi (v "10.9") in
  let fort c = List.map Soname.to_string (Compiler.fortran_runtime_libs c) in
  Alcotest.(check (list string)) "g77 era" [ "libg2c.so.0" ] (fort gnu34);
  Alcotest.(check (list string)) "gcc 4.1" [ "libgfortran.so.1" ] (fort gnu41);
  Alcotest.(check (list string)) "gcc 4.4" [ "libgfortran.so.3" ] (fort gnu44);
  Alcotest.(check bool) "intel ifcore" true
    (has_base "libifcore" (Compiler.fortran_runtime_libs intel));
  Alcotest.(check bool) "pgi pgf90" true
    (has_base "libpgf90" (Compiler.fortran_runtime_libs pgi));
  Alcotest.(check bool) "intel c runtime imf" true
    (has_base "libimf" (Compiler.c_runtime_libs intel))

let test_compiler_letters () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Compiler.family_name f) true
        (Compiler.family_of_slug (Compiler.family_slug f) = Some f))
    [ Compiler.Gnu; Compiler.Intel; Compiler.Pgi ]

let test_interconnect () =
  Alcotest.(check bool) "ethernet anywhere" true
    (Interconnect.supports ~binary:Interconnect.Ethernet ~site:Interconnect.Numalink);
  Alcotest.(check bool) "ib on ib" true
    (Interconnect.supports ~binary:Interconnect.Infiniband ~site:Interconnect.Infiniband);
  Alcotest.(check bool) "ib on ethernet" false
    (Interconnect.supports ~binary:Interconnect.Infiniband ~site:Interconnect.Ethernet)

let mk_stack impl iv family cv inter =
  Stack.make ~impl ~impl_version:(v iv)
    ~compiler:(Compiler.make family (v cv))
    ~interconnect:inter

let test_stack_slug () =
  let st = mk_stack Impl.Open_mpi "1.4.3" Compiler.Intel "11.1" Interconnect.Ethernet in
  Alcotest.(check string) "slug" "openmpi-1.4.3-intel" (Stack.slug st)

(* The two stack tests the MPI-stack determinant (Tec) applies: the
   implementation type, version ignored, and the compiler family. *)
let test_stack_compat () =
  let a = mk_stack Impl.Open_mpi "1.3" Compiler.Gnu "3.4.6" Interconnect.Ethernet in
  let same_impl x y = Impl.compatible ~binary:(Stack.impl x) ~site:(Stack.impl y) in
  let same_family x y =
    Compiler.family_equal
      (Compiler.family (Stack.compiler x))
      (Compiler.family (Stack.compiler y))
  in
  let b = mk_stack Impl.Open_mpi "1.4" Compiler.Gnu "4.4.5" Interconnect.Infiniband in
  Alcotest.(check bool) "versions ignored" true (same_impl a b && same_family a b);
  let c = mk_stack Impl.Open_mpi "1.4" Compiler.Intel "11.1" Interconnect.Ethernet in
  Alcotest.(check bool) "compiler family matters" false (same_family a c);
  let d = mk_stack Impl.Mvapich2 "1.4" Compiler.Gnu "4.1.2" Interconnect.Infiniband in
  Alcotest.(check bool) "impl matters" false (same_impl a d)

let test_stack_needed_libs () =
  let st = mk_stack Impl.Mvapich2 "1.7a2" Compiler.Intel "11.1" Interconnect.Infiniband in
  let c_libs = Stack.needed_libs st Stack.C in
  let f_libs = Stack.needed_libs st Stack.Fortran in
  Alcotest.(check bool) "c has libmpich" true (has_base "libmpich" c_libs);
  Alcotest.(check bool) "c has ibverbs" true (has_base "libibverbs" c_libs);
  Alcotest.(check bool) "c has intel rt" true (has_base "libimf" c_libs);
  Alcotest.(check bool) "c lacks fortran bindings" false (has_base "libmpichf90" c_libs);
  Alcotest.(check bool) "fortran has bindings" true (has_base "libmpichf90" f_libs);
  Alcotest.(check bool) "fortran has ifcore" true (has_base "libifcore" f_libs)

let test_launcher () =
  Alcotest.(check string) "default" "mpiexec" Stack.default_launcher;
  Alcotest.(check bool) "wrappers" true (List.mem "mpicc" Stack.wrapper_names)

let suite =
  ( "mpi",
    [
      Alcotest.test_case "impl slugs" `Quick test_impl_slugs;
      Alcotest.test_case "impl compatibility" `Quick test_impl_compat;
      Alcotest.test_case "Table I fingerprints" `Quick test_fingerprints;
      Alcotest.test_case "core libs" `Quick test_core_libs;
      Alcotest.test_case "compiler runtimes" `Quick test_compiler_runtimes;
      Alcotest.test_case "compiler families" `Quick test_compiler_letters;
      Alcotest.test_case "interconnects" `Quick test_interconnect;
      Alcotest.test_case "stack slug" `Quick test_stack_slug;
      Alcotest.test_case "stack compatibility" `Quick test_stack_compat;
      Alcotest.test_case "stack needed libs" `Quick test_stack_needed_libs;
      Alcotest.test_case "launcher" `Quick test_launcher;
    ] )
