(* Tests for the shell-environment model and its path-list helpers. *)

open Feam_sysmodel

let test_basic () =
  let e = Env.set Env.empty "HOME" "/home/user" in
  Alcotest.(check (option string)) "get" (Some "/home/user") (Env.get e "HOME");
  Alcotest.(check (option string)) "missing" None (Env.get e "SHELL");
  let e = Env.set e "HOME" "/root" in
  Alcotest.(check (option string)) "set replaces" (Some "/root") (Env.get e "HOME")

let test_immutability () =
  let e1 = Env.set Env.empty "A" "1" in
  let e2 = Env.set e1 "A" "2" in
  Alcotest.(check (option string)) "e1 untouched" (Some "1") (Env.get e1 "A");
  Alcotest.(check (option string)) "e2 updated" (Some "2") (Env.get e2 "A")

let test_paths () =
  let e = Env.set Env.empty "LD_LIBRARY_PATH" "/a:/b::/c" in
  Alcotest.(check (list string)) "split drops empties" [ "/a"; "/b"; "/c" ]
    (Env.ld_library_path e);
  Alcotest.(check (list string)) "unset var" [] (Env.path e)

let test_prepend_append () =
  let e = Env.prepend_path Env.empty "PATH" "/usr/bin" in
  Alcotest.(check (list string)) "first entry" [ "/usr/bin" ] (Env.path e);
  let e = Env.prepend_path e "PATH" "/opt/bin" in
  Alcotest.(check (list string)) "prepended" [ "/opt/bin"; "/usr/bin" ] (Env.path e)

let test_of_list_to_string () =
  let e = Env.set (Env.set Env.empty "B" "2") "A" "1" in
  Alcotest.(check (list (pair string string)))
    "bindings sorted" [ ("A", "1"); ("B", "2") ] (Env.bindings e)

let suite =
  ( "env",
    [
      Alcotest.test_case "basic" `Quick test_basic;
      Alcotest.test_case "immutability" `Quick test_immutability;
      Alcotest.test_case "path split" `Quick test_paths;
      Alcotest.test_case "prepend/append" `Quick test_prepend_append;
      Alcotest.test_case "of_list/to_string" `Quick test_of_list_to_string;
    ] )
