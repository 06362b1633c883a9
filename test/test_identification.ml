(* Exhaustive and property tests for the Table I identification scheme:
   over every stack combination the evaluation uses, and over randomized
   stacks, the DT_NEEDED fingerprint must identify exactly the right
   implementation — the basis of the paper's "100% accurate at assessing
   whether a matching MPI implementation was available" (§VI.B). *)

open Feam_util
open Feam_mpi
open Feam_core

let v = Version.of_string_exn

let all_compilers =
  [
    Compiler.make Compiler.Gnu (v "3.4.6");
    Compiler.make Compiler.Gnu (v "4.1.2");
    Compiler.make Compiler.Gnu (v "4.4.5");
    Compiler.make Compiler.Intel (v "10.1");
    Compiler.make Compiler.Intel (v "11.1");
    Compiler.make Compiler.Intel (v "12");
    Compiler.make Compiler.Pgi (v "7.2");
    Compiler.make Compiler.Pgi (v "10.9");
  ]

let all_versions = function
  | Impl.Open_mpi -> [ "1.3"; "1.4" ]
  | Impl.Mvapich2 -> [ "1.2"; "1.7rc1"; "1.7a2"; "1.7a" ]
  | Impl.Mpich2 -> [ "1.3"; "1.4" ]

let stack_of impl version compiler =
  Stack.make ~impl ~impl_version:(v version) ~compiler
    ~interconnect:
      (match impl with
      | Impl.Mvapich2 -> Interconnect.Infiniband
      | Impl.Open_mpi | Impl.Mpich2 -> Interconnect.Ethernet)

(* The DT_NEEDED list a binary built with this stack would carry
   (MPI + system libs + the universal base). *)
let needed_of stack language =
  List.map Soname.to_string (Stack.needed_libs stack language)
  @ [ "libm.so.6"; "libpthread.so.0"; "libc.so.6" ]

let test_exhaustive_identification () =
  List.iter
    (fun impl ->
      List.iter
        (fun version ->
          List.iter
            (fun compiler ->
              List.iter
                (fun language ->
                  let stack = stack_of impl version compiler in
                  let needed = needed_of stack language in
                  match Mpi_ident.identify needed with
                  | Some ident ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s %s %s" (Impl.name impl) version
                         (Compiler.to_string compiler))
                      (Impl.name impl)
                      (Impl.name ident.Mpi_ident.impl)
                  | None ->
                    Alcotest.failf "no identification for %s" (Stack.slug stack))
                [ Stack.C; Stack.Fortran ])
            all_compilers)
        (all_versions impl))
    Fixtures.all_impls

let test_fortran_bindings_detected () =
  List.iter
    (fun impl ->
      let stack = stack_of impl (List.hd (all_versions impl)) (List.hd all_compilers) in
      let c = Option.get (Mpi_ident.identify (needed_of stack Stack.C)) in
      let f = Option.get (Mpi_ident.identify (needed_of stack Stack.Fortran)) in
      Alcotest.(check bool) (Impl.name impl ^ " C") false c.Mpi_ident.fortran_bindings;
      Alcotest.(check bool) (Impl.name impl ^ " F") true f.Mpi_ident.fortran_bindings)
    Fixtures.all_impls

(* Identification is order-insensitive and robust to extra non-MPI
   libraries in the list. *)
let gen_noise_libs =
  QCheck.Gen.(
    list_size (int_range 0 5)
      (oneofl
         [ "libz.so.1"; "libstdc++.so.6"; "libgfortran.so.1"; "libhdf5.so.0";
           "libX11.so.6"; "libdl.so.2" ]))

let gen_stack =
  QCheck.Gen.(
    oneofl Fixtures.all_impls >>= fun impl ->
    oneofl (all_versions impl) >>= fun version ->
    oneofl all_compilers >>= fun compiler ->
    oneofl [ Stack.C; Stack.Fortran ] >>= fun language ->
    return (stack_of impl version compiler, language))

let prop_identification_robust =
  QCheck.Test.make
    ~name:"identification survives shuffling and unrelated libraries" ~count:300
    (QCheck.make
       ~print:(fun ((s, _), noise, seed) ->
         Printf.sprintf "%s + [%s] @%d" (Stack.slug s) (String.concat ";" noise) seed)
       QCheck.Gen.(triple gen_stack gen_noise_libs (int_range 0 1000)))
    (fun ((stack, language), noise, seed) ->
      let needed = needed_of stack language @ noise in
      (* deterministic shuffle *)
      let g = Prng.create seed in
      let arr = Array.of_list needed in
      for i = Array.length arr - 1 downto 1 do
        let j = Prng.int g (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      match Mpi_ident.identify (Array.to_list arr) with
      | Some ident -> Impl.equal ident.Mpi_ident.impl (Stack.impl stack)
      | None -> false)

(* Stack slugs parse back to the stack's identity. *)
let prop_slug_roundtrip =
  QCheck.Test.make ~name:"stack slug parses back to impl/version/family"
    ~count:200
    (QCheck.make
       ~print:(fun (s, _) -> Stack.slug s)
       gen_stack)
    (fun (stack, _) ->
      match
        Discovery.parse_stack_slug ~via:Discovery.Modules (Stack.slug stack)
      with
      | Some d ->
        Impl.equal d.Discovery.impl (Stack.impl stack)
        && d.Discovery.impl_version = Some (Stack.impl_version stack)
        && d.Discovery.compiler_family
           = Some (Compiler.family (Stack.compiler stack))
      | None -> false)

(* A name that does not parse as a soname is compared whole: a bare
   "libmpi" still names Open MPI's library, while a malformed version
   ("libmpich.so.1abc") or a stray path names nothing. *)
let test_unparsable_names () =
  let ident needed =
    match Mpi_ident.identify needed with
    | None -> "none"
    | Some i ->
      Printf.sprintf "%s [%s]%s" (Impl.slug i.Mpi_ident.impl)
        (String.concat " " i.Mpi_ident.evidence)
        (if i.Mpi_ident.fortran_bindings then " fortran" else "")
  in
  let check label expected needed =
    Alcotest.(check string) label expected (ident needed)
  in
  check "bare base names" "openmpi [libmpi.so libnsl.so]"
    [ "libmpi"; "libnsl"; "libc.so.6" ];
  check "malformed versions name nothing" "none"
    [ "libmpich.so.1abc"; "libmpi.so..0"; "/usr/lib/libmpi.so.0"; "" ];
  check "bare fortran binding" "mpich2 [libmpich.so] fortran"
    [ "libfmpich"; "libmpich.so.1"; "not a soname" ];
  check "unparsable names beside a parsed one" "mvapich2 [libmpich.so libibverbs.so]"
    [ "libmpich.so.1"; "libibverbs"; "libibumad.so.x" ]

let suite =
  ( "identification",
    [
      Alcotest.test_case "exhaustive over stack matrix" `Quick
        test_exhaustive_identification;
      Alcotest.test_case "fortran bindings detected" `Quick
        test_fortran_bindings_detected;
      Alcotest.test_case "names that are not sonames" `Quick test_unparsable_names;
      QCheck_alcotest.to_alcotest prop_identification_robust;
      QCheck_alcotest.to_alcotest prop_slug_roundtrip;
    ] )
