(* Tests for the administrator what-if analysis. *)

open Feam_evalharness

let v = Feam_util.Version.of_string_exn

let test_pgi_at_forge_unlocks_migrations () =
  (* PGI binaries from ranger/fir fail at forge on their missing vendor
     runtime; installing the PGI suite must unlock a strictly positive
     number of them *)
  let r =
    Whatif.evaluate Params.default ~site_name:"forge"
      ~change:
        (Whatif.Add_compiler
           (Feam_mpi.Compiler.make Feam_mpi.Compiler.Pgi (v "10.9")))
  in
  Alcotest.(check bool) "positive delta" true (r.Whatif.successes_after_change - r.Whatif.successes_before_change > 0);
  Alcotest.(check bool) "bounded by migrations" true
    (r.Whatif.successes_after_change <= r.Whatif.migrations);
  Alcotest.(check bool) "change described" true
    (Feam_sysmodel.Str_split.contains ~sub:"PGI" r.Whatif.change)

let test_noop_change_is_neutral () =
  (* installing a compiler the site already has changes (almost) nothing:
     allow only the small stochastic jitter of rebuilt worlds *)
  let r =
    Whatif.evaluate Params.default ~site_name:"forge"
      ~change:
        (Whatif.Add_compiler
           (Feam_mpi.Compiler.make Feam_mpi.Compiler.Intel (v "12")))
  in
  Alcotest.(check bool)
    (Printf.sprintf "delta %d small" (r.Whatif.successes_after_change - r.Whatif.successes_before_change))
    true
    (abs (r.Whatif.successes_after_change - r.Whatif.successes_before_change) <= 6);
  Alcotest.(check bool) "table renders" true
    (String.length (Feam_util.Table.render (Whatif.table [ r ])) > 0)

let suite =
  ( "whatif",
    [
      Alcotest.test_case "PGI at forge unlocks migrations" `Slow
        test_pgi_at_forge_unlocks_migrations;
      Alcotest.test_case "no-op change is neutral" `Slow test_noop_change_is_neutral;
    ] )
