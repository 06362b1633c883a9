(* Tests for the JSON codec and the machine-readable report. *)

open Feam_util

let test_render_basics () =
  Alcotest.(check string) "null" "null" (Json.render Json.Null);
  Alcotest.(check string) "bool" "true" (Json.render (Json.Bool true));
  Alcotest.(check string) "int" "-42" (Json.render (Json.Int (-42)));
  Alcotest.(check string) "string escape" "\"a\\\"b\\n\""
    (Json.render (Json.Str "a\"b\n"));
  Alcotest.(check string) "list" "[1,2]"
    (Json.render (Json.List [ Json.Int 1; Json.Int 2 ]));
  Alcotest.(check string) "obj" "{\"k\":\"v\"}"
    (Json.render (Json.Obj [ ("k", Json.Str "v") ]))

let test_parse_basics () =
  let ok s = Result.get_ok (Json.parse s) in
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "int" true (ok " 42 " = Json.Int 42);
  Alcotest.(check bool) "float" true
    (match ok "3.5" with Json.Float f -> f = 3.5 | _ -> false);
  Alcotest.(check bool) "nested" true
    (ok "{\"a\": [1, {\"b\": false}]}"
    = Json.Obj
        [ ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Bool false) ] ]) ]);
  Alcotest.(check bool) "escapes" true (ok "\"a\\nb\"" = Json.Str "a\nb");
  Alcotest.(check bool) "empty containers" true
    (ok "[]" = Json.List [] && ok "{}" = Json.Obj [])

let test_parse_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true (Result.is_error (Json.parse s)))
    [ ""; "{"; "[1,]"; "{\"a\"}"; "tru"; "1 2"; "\"unterminated" ]

let gen_json =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
                map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12));
              ]
          in
          if n <= 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
                        (self (n / 2))));
              ])
        (min n 6))

let prop_roundtrip =
  QCheck.Test.make ~name:"json: render/parse roundtrip" ~count:300
    (QCheck.make ~print:Json.render gen_json) (fun j ->
      match Json.parse (Json.render j) with
      | Ok j' -> j = j'
      | Error _ -> false)

let test_report_json () =
  let site, installs = Fixtures.small_site () in
  let path, _ = Fixtures.compiled_binary site installs in
  let report =
    Fixtures.run_exn
      (Feam_core.Phases.target_phase Feam_core.Config.default site
         (Feam_sysmodel.Site.base_env site) ~binary_path:path ())
  in
  let json = Feam_core.Report.to_json report in
  (* the rendered JSON parses back *)
  let parsed = Result.get_ok (Json.parse (Json.render json)) in
  Alcotest.(check (option string)) "site" (Some "testbed")
    (Option.bind (Json.member "site" parsed) Json.to_string_opt);
  let prediction = Option.get (Json.member "prediction" parsed) in
  Alcotest.(check (option bool)) "ready" (Some true)
    (Option.bind (Json.member "ready" prediction) Json.to_bool_opt);
  Alcotest.(check bool) "determinants present" true
    (Json.member "determinants" parsed <> None)

let test_matrix () =
  let sites, binaries, migrations =
    let params = Feam_evalharness.Params.default in
    let sites = Feam_evalharness.Sites.build_all params in
    let benchmarks = [ List.hd Feam_suites.Npb.all ] in
    let binaries = Feam_evalharness.Testset.build params sites benchmarks in
    (sites, binaries, Feam_evalharness.Migrate.run_all params sites binaries)
  in
  ignore binaries;
  let m = Feam_evalharness.Matrix.build sites migrations in
  (* every migration lands in exactly one cell: the rendered cells'
     "(successes/attempts)" attempts sum to the migration count *)
  let rendered = Feam_util.Table.render (Feam_evalharness.Matrix.table m) in
  let total =
    String.split_on_char '(' rendered
    |> List.tl
    |> List.fold_left
         (fun acc chunk ->
           match String.index_opt chunk ')' with
           | Some close -> (
             match String.split_on_char '/' (String.sub chunk 0 close) with
             | [ _; attempts ] -> acc + int_of_string attempts
             | _ -> acc)
           | None -> acc)
         0
  in
  Alcotest.(check int) "cells cover migrations" (List.length migrations) total

let suite =
  ( "json",
    [
      Alcotest.test_case "render basics" `Quick test_render_basics;
      Alcotest.test_case "parse basics" `Quick test_parse_basics;
      Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      Alcotest.test_case "report json" `Quick test_report_json;
      Alcotest.test_case "matrix" `Slow test_matrix;
    ] )
