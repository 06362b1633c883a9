(* The pass memo's source-phase table (DESIGN §17).  test_reference.ml
   checks it end to end, against a pass with no cache.  The key tests
   here pin what must miss, and the guard test that a pass cannot be
   carried into a rebuilt world. *)

open Feam_sysmodel
open Feam_evalharness
module Eval_ctx = Feam_core.Eval_ctx
module Recorder = Feam_flightrec.Recorder

let params = Params.default

let counter name = Option.value ~default:0 (Feam_obs.Metrics.counter_value name)

(* Three Table II sites, so a binary has more than one target and its
   source phase repeats within a pass. *)
let three_site_world () =
  let n = List.length Sites.specs in
  Driftrun.build_world params
    (List.filteri (fun i _ -> i >= n - 3) Sites.specs)
    (Driftrun.small_benchmarks ()) []

(* -- the key ------------------------------------------------------------ *)

(* Run the binary's source phase under [ctx], at [path] (default: its
   home path); true when it missed. *)
let missed ctx ?env ?path (binary : Testset.binary) =
  let home = binary.Testset.home in
  let env =
    match env with
    | Some env -> env
    | None ->
      Modules_tool.load_stack (Site.base_env home) binary.Testset.install
  in
  let misses = counter "phases.source_memo.miss" in
  ignore
    (Feam_core.Phases.source_phase ~ctx Feam_core.Config.default home env
       ~binary_path:(Option.value path ~default:binary.Testset.home_path)
      : (Feam_core.Bundle.t, string) result);
  counter "phases.source_memo.miss" > misses

let test_key_misses () =
  let _, binaries = three_site_world () in
  let binary = List.hd binaries in
  let ctx = Eval_ctx.create () in
  Alcotest.(check bool) "first lookup misses" true (missed ctx binary);
  Alcotest.(check bool) "the same inputs hit" false (missed ctx binary);
  Recorder.configure ~tool:"test" ~emit:ignore ();
  let journaled = missed ctx binary in
  Recorder.disable ();
  Alcotest.(check bool) "journaling is its own key" true journaled;
  let home = binary.Testset.home in
  let other =
    List.find
      (fun i -> i != binary.Testset.install)
      (Site.stack_installs home)
  in
  Alcotest.(check bool) "an env with another module misses" true
    (missed ctx
       ~env:(Modules_tool.load_stack (Site.base_env home) other)
       binary);
  let bytes = Bytes.of_string binary.Testset.bytes in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
  let write path =
    Vfs.add ~declared_size:binary.Testset.declared_size (Site.vfs home) path
      (Vfs.Elf (Bytes.to_string bytes))
  in
  (* Writes inside a scope leave the site's state as it was, so only
     the key can tell these lookups from the first. *)
  Vfs.scoped (Site.vfs home) (fun () ->
      let copy = binary.Testset.home_path ^ ".copy" in
      Vfs.add_image ~declared_size:binary.Testset.declared_size (Site.vfs home)
        copy binary.Testset.image;
      Alcotest.(check bool) "the same image at another path misses" true
        (missed ctx ~path:copy binary);
      write binary.Testset.home_path;
      Alcotest.(check bool) "changed bytes in a scope miss" true
        (missed ctx binary));
  write binary.Testset.home_path;
  Alcotest.(check bool) "changed bytes at the same path miss" true
    (missed ctx binary)

(* -- the guard ---------------------------------------------------------- *)

let test_pass_bound_to_its_world () =
  let ctx = Eval_ctx.create () in
  let sites, binaries = three_site_world () in
  ignore (Driftrun.predict_all ~ctx sites binaries : Feam_drift.Snapshot.cell list);
  let sites, binaries = three_site_world () in
  let raised f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "a source phase in a rebuilt world raises" true
    (raised (fun () ->
         ignore (Migrate.source_bundle ~ctx (List.hd binaries))));
  Alcotest.(check bool) "a prediction pass over a rebuilt world raises" true
    (raised (fun () -> ignore (Driftrun.predict_all ~ctx sites binaries)));
  Alcotest.(check bool) "a fresh pass over the same describe memo runs" false
    (raised (fun () ->
         ignore
           (Driftrun.predict_all
              ~ctx:(Eval_ctx.create ?describe:ctx.Eval_ctx.describe ())
              sites binaries)))

let suite =
  ( "source memo",
    [
      Alcotest.test_case "key: journaling, module, binary bytes, path" `Quick
        test_key_misses;
      Alcotest.test_case "a pass is bound to its world" `Quick
        test_pass_bound_to_its_world;
    ] )
