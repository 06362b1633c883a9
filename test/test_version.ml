(* Unit and property tests for Feam_util.Version. *)

open Feam_util

let v = Version.of_string_exn

let check_parse s expected =
  Alcotest.(check string) s expected (Version.to_string (v s))

let test_parse_roundtrip () =
  List.iter
    (fun s -> check_parse s s)
    [ "2.3.4"; "1.4"; "1.7rc1"; "1.7a2"; "4.4.5"; "11.1"; "2"; "10.0.1" ]

let test_parse_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true (Version.of_string s = None))
    [ ""; "abc"; ".5"; "-1"; "99999999999999999999"; "2.99999999999999999999";
      "2.99999999999999999999rc1" ];
  Alcotest.(check (option string)) "max_int still parses"
    (Some (string_of_int max_int))
    (Option.map Version.to_string (Version.of_string (string_of_int max_int)))

let test_components () =
  Alcotest.(check (list int)) "components" [ 2; 3; 4 ] (Version.components (v "2.3.4"));
  Alcotest.(check int) "major" 2 (Version.major (v "2.3.4"));
  let minor v = List.nth_opt (Version.components v) 1 in
  Alcotest.(check (option int)) "minor" (Some 3) (minor (v "2.3.4"));
  Alcotest.(check (option int)) "no minor" None (minor (v "7"));
  Alcotest.(check string) "tag kept" "1.7rc1" (Version.to_string (v "1.7rc1"))

let test_order_basic () =
  let lt a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s < %s" a b)
      true
      Version.(v a < v b)
  in
  lt "2.3.4" "2.4";
  lt "2.4" "2.12";
  lt "1.7rc1" "1.7";
  lt "1.7a2" "1.7rc1" (* "a2" < "rc1" lexicographically *);
  lt "1.3" "1.4";
  lt "2.11.1" "2.12"

let test_zero_padding () =
  Alcotest.(check bool) "1.7 = 1.7.0" true (Version.equal (v "1.7") (v "1.7.0"));
  Alcotest.(check bool) "1.7 <= 1.7.0" true Version.(v "1.7" <= v "1.7.0");
  Alcotest.(check bool) "1.7.1 > 1.7" true Version.(v "1.7.1" > v "1.7")

let test_min_max () =
  Alcotest.check Fixtures.version "max" (v "2.12") (Version.max (v "2.5") (v "2.12"));
  Alcotest.check Fixtures.version "min" (v "2.5") (Version.min (v "2.5") (v "2.12"))

let test_make_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Version.make: empty component list")
    (fun () -> ignore (Version.of_ints []));
  Alcotest.check_raises "negative"
    (Invalid_argument "Version.make: negative component") (fun () ->
      ignore (Version.of_ints [ 1; -2 ]))

(* -- qcheck properties --------------------------------------------------- *)

let gen_version =
  QCheck.Gen.(
    let components = list_size (int_range 1 4) (int_range 0 30) in
    let tag = opt (oneofl [ "rc1"; "a2"; "b"; "pre" ]) in
    map2
      (fun c t ->
        Version.of_string_exn
          (String.concat "." (List.map string_of_int c) ^ Option.value t ~default:""))
      components tag)

let arb_version = QCheck.make ~print:Version.to_string gen_version

let prop_roundtrip =
  QCheck.Test.make ~name:"version: to_string/of_string roundtrip" ~count:500
    arb_version (fun a ->
      match Version.of_string (Version.to_string a) with
      | Some b -> Version.equal a b
      | None -> false)

let prop_total_order_antisym =
  QCheck.Test.make ~name:"version: compare antisymmetric" ~count:500
    (QCheck.pair arb_version arb_version) (fun (a, b) ->
      let c1 = Version.compare a b and c2 = Version.compare b a in
      (c1 = 0 && c2 = 0) || c1 * c2 < 0)

let prop_total_order_trans =
  QCheck.Test.make ~name:"version: compare transitive" ~count:500
    (QCheck.triple arb_version arb_version arb_version) (fun (a, b, c) ->
      let sorted = List.sort Version.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] ->
        Version.(x <= y) && Version.(y <= z) && Version.(x <= z)
      | _ -> false)

let prop_max_commutes =
  QCheck.Test.make ~name:"version: max commutative and an upper bound" ~count:500
    (QCheck.pair arb_version arb_version) (fun (a, b) ->
      let m = Version.max a b in
      Version.equal m (Version.max b a) && Version.(a <= m) && Version.(b <= m))

let suite =
  ( "version",
    [
      Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
      Alcotest.test_case "parse invalid" `Quick test_parse_invalid;
      Alcotest.test_case "components" `Quick test_components;
      Alcotest.test_case "ordering" `Quick test_order_basic;
      Alcotest.test_case "zero padding" `Quick test_zero_padding;
      Alcotest.test_case "min/max" `Quick test_min_max;
      Alcotest.test_case "make validation" `Quick test_make_invalid;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_total_order_antisym;
      QCheck_alcotest.to_alcotest prop_total_order_trans;
      QCheck_alcotest.to_alcotest prop_max_commutes;
    ] )
