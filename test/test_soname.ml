(* Unit and property tests for Feam_util.Soname: the naming convention
   behind the shared-library compatibility determinant. *)

open Feam_util

let s = Soname.of_string_exn

let test_parse () =
  let check str base version =
    let t = s str in
    Alcotest.(check string) (str ^ " base") base (Soname.base t);
    Alcotest.(check (list int)) (str ^ " version") version (Soname.version t)
  in
  check "libmpi.so.0" "libmpi" [ 0 ];
  check "libgfortran.so.3" "libgfortran" [ 3 ];
  check "libmpich.so.1.2" "libmpich" [ 1; 2 ];
  check "libimf.so" "libimf" [];
  check "libstdc++.so.6.0.13" "libstdc++" [ 6; 0; 13 ]

let test_parse_rejects () =
  List.iter
    (fun str ->
      Alcotest.(check bool) ("reject " ^ str) true (Soname.of_string str = None))
    [ "README"; "libfoo.so.x"; "libfoo.txt"; ".so.1"; "libfoo.so." ]

let test_to_string () =
  Alcotest.(check string) "render" "libmpi.so.0"
    (Soname.to_string (Soname.make ~version:[ 0 ] "libmpi"));
  Alcotest.(check string) "unversioned" "libimf.so"
    (Soname.to_string (Soname.make "libimf"));
  Alcotest.(check string) "link name" "libmpi.so"
    (Soname.link_name (Soname.make ~version:[ 0 ] "libmpi"))

let test_major () =
  Alcotest.(check (option int)) "major" (Some 6) (Soname.major (s "libstdc++.so.6.0.13"));
  Alcotest.(check (option int)) "no major" None (Soname.major (s "libimf.so"))

let test_satisfies () =
  let sat p r = Soname.satisfies ~provided:(s p) ~required:(s r) in
  Alcotest.(check bool) "same major, longer version" true
    (sat "libstdc++.so.6.0.13" "libstdc++.so.6");
  Alcotest.(check bool) "same exact" true (sat "libmpi.so.0" "libmpi.so.0");
  Alcotest.(check bool) "major mismatch" false (sat "libgfortran.so.3" "libgfortran.so.1");
  Alcotest.(check bool) "base mismatch" false (sat "libmpich.so.1" "libmpi.so.1");
  Alcotest.(check bool) "unversioned requirement" true (sat "libimf.so" "libimf.so");
  Alcotest.(check bool) "versioned provider, unversioned requirement" true
    (sat "libz.so.1" "libz.so");
  Alcotest.(check bool) "unversioned provider cannot satisfy versioned" false
    (sat "libz.so" "libz.so.1")

(* -- qcheck -------------------------------------------------------------- *)

let gen_soname =
  QCheck.Gen.(
    let base =
      map (fun s -> "lib" ^ s) (oneofl [ "mpi"; "mpich"; "gfortran"; "z"; "foo" ])
    in
    let version = list_size (int_range 0 3) (int_range 0 20) in
    map2 (fun b ver -> Soname.make ~version:ver b) base version)

let arb_soname = QCheck.make ~print:Soname.to_string gen_soname

let prop_roundtrip =
  QCheck.Test.make ~name:"soname: to_string/of_string roundtrip" ~count:500
    arb_soname (fun a ->
      match Soname.of_string (Soname.to_string a) with
      | Some b -> a = b
      | None -> false)

let prop_satisfies_reflexive =
  QCheck.Test.make ~name:"soname: satisfies is reflexive" ~count:500 arb_soname
    (fun a -> Soname.satisfies ~provided:a ~required:a)

let prop_satisfies_same_major =
  QCheck.Test.make ~name:"soname: same base+major always satisfies" ~count:500
    (QCheck.pair arb_soname (QCheck.make QCheck.Gen.(int_range 0 20)))
    (fun (a, minor) ->
      match Soname.major a with
      | None -> QCheck.assume_fail ()
      | Some major ->
        let provided = Soname.make ~version:[ major; minor ] (Soname.base a) in
        Soname.satisfies ~provided ~required:a)

let suite =
  ( "soname",
    [
      Alcotest.test_case "parse" `Quick test_parse;
      Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
      Alcotest.test_case "render" `Quick test_to_string;
      Alcotest.test_case "major" `Quick test_major;
      Alcotest.test_case "satisfies" `Quick test_satisfies;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_satisfies_reflexive;
      QCheck_alcotest.to_alcotest prop_satisfies_same_major;
    ] )
