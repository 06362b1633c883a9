(* The pass memo's MPI-stack table (DESIGN §17).  test_reference.ml
   checks it end to end, against a pass with no cache.  The key tests
   here pin what must miss; the replay test pins what a hit must redo,
   and the digest test that neither a hit nor a miss leaves a file
   behind. *)

open Feam_sysmodel
open Feam_evalharness
module Pass_memo = Feam_core.Pass_memo
module Metrics = Feam_obs.Metrics

let params = Params.default

let counter name = Option.value ~default:0 (Metrics.counter_value name)

(* -- the key ------------------------------------------------------------ *)

let small_cell () =
  let sites, binaries =
    Driftrun.build_world params (Driftrun.small_specs ())
      (Driftrun.small_benchmarks ()) []
  in
  let binary, target =
    List.find
      (fun (b, _) ->
        match Migrate.source_bundle b with
        | Ok bundle ->
          bundle.Feam_core.Bundle.copies <> []
          && bundle.Feam_core.Bundle.probes <> []
        | Error _ -> false)
      (Migrate.cells sites binaries)
  in
  match Migrate.source_bundle binary with
  | Ok bundle -> (target, bundle)
  | Error e -> Alcotest.fail e

(* Look [bundle], [env] and [target_glibc] (default: the target's) up
   in [memo]; true when the probe ran. *)
let missed memo target ?(env = Site.base_env target)
    ?(target_glibc = Site.glibc target) bundle =
  let ran = ref false in
  ignore
    (Pass_memo.find_or_probe memo ~config:Feam_core.Config.default target env
       ~bundle ~target_glibc:(Some target_glibc) ~candidates:[]
       (fun ~clock:_ ->
         ran := true;
         (None, []))
      : Pass_memo.selection);
  !ran

let test_key_misses () =
  let target, bundle = small_cell () in
  let memo = Pass_memo.create () in
  Alcotest.(check bool) "first lookup misses" true
    (missed memo target (Some bundle));
  Alcotest.(check bool) "the same inputs hit" false
    (missed memo target (Some bundle));
  Alcotest.(check bool) "no bundle is its own key" true
    (missed memo target None);
  Feam_flightrec.Recorder.configure ~tool:"test" ~emit:ignore ();
  let journaled = missed memo target (Some bundle) in
  Feam_flightrec.Recorder.disable ();
  Alcotest.(check bool) "journaling is its own key" true journaled;
  let changed =
    match bundle.Feam_core.Bundle.copies with
    | c :: rest ->
      let bytes =
        Bytes.of_string (Feam_elf.Reader.image_bytes c.Feam_core.Bdc.copy_image)
      in
      let last = Bytes.length bytes - 1 in
      Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
      {
        bundle with
        Feam_core.Bundle.copies =
          {
            c with
            Feam_core.Bdc.copy_image = Feam_elf.Reader.image (Bytes.to_string bytes);
          }
          :: rest;
      }
    | [] -> Alcotest.fail "the cell's bundle has no copies"
  in
  Alcotest.(check bool) "one copy's bytes changed misses" true
    (missed memo target (Some changed));
  Alcotest.(check bool) "a bundle without probes misses" true
    (missed memo target (Some { bundle with Feam_core.Bundle.probes = [] }));
  Alcotest.(check bool) "a bundle without copies misses" true
    (missed memo target (Some { bundle with Feam_core.Bundle.copies = [] }));
  Alcotest.(check bool) "another target glibc misses" true
    (missed memo target
       ~target_glibc:(Feam_util.Version.of_ints [ 1; 0 ])
       (Some bundle));
  let install = List.hd (Site.stack_installs target) in
  Alcotest.(check bool) "an env with an extra module misses" true
    (missed memo target
       ~env:(Modules_tool.load_stack (Site.base_env target) install)
       (Some bundle))

(* -- replay ----------------------------------------------------------- *)

let test_hit_redoes_effects () =
  let target, bundle = small_cell () in
  (* one effect on every channel a hit redoes *)
  let work ~clock =
    Feam_flightrec.Recorder.evidence ~stage:"probe" ~kind:"test_stack" (fun () -> []);
    Metrics.incr "edc.probe_successes";
    Metrics.incr "elf.parse_memo.miss";
    ignore (Feam_toolchain.Build_id.next ~site_name:"x" : string);
    Cost.charge (Some clock) 0.1;
    Cost.charge (Some clock) 0.2;
    (None, [ ("stack", "why") ])
  in
  let memo = Pass_memo.create () in
  let clock = Feam_util.Sim_clock.create () in
  let lookup bundle =
    Pass_memo.find_or_probe memo ~clock ~config:Feam_core.Config.default
      target (Site.base_env target) ~bundle:(Some bundle) ~target_glibc:None
      ~candidates:[] work
  in
  Metrics.reset ();
  let journal = ref "" in
  Feam_flightrec.Recorder.configure ~tool:"test" ~emit:(( := ) journal) ();
  Feam_util.Sim_clock.charge clock 0.3;
  let serial = Feam_toolchain.Build_id.serial () in
  let first = lookup bundle in
  (* a second source phase: equal inputs, fresh probe bytes *)
  let again =
    {
      bundle with
      Feam_core.Bundle.probes =
        List.map
          (fun (p : Feam_core.Bundle.probe) ->
            {
              p with
              probe_image =
                Feam_elf.Reader.image
                  (Feam_elf.Reader.image_bytes p.probe_image ^ "");
            })
          bundle.Feam_core.Bundle.probes;
    }
  in
  let second = lookup again in
  Feam_flightrec.Recorder.flush ();
  Feam_flightrec.Recorder.disable ();
  Alcotest.(check int) "one hit" 1 (counter "tec.stack_memo.hit");
  Alcotest.(check bool) "the selection is the miss's" true (first = second);
  Alcotest.(check (float 0.0)) "charges replayed in order"
    (0.3 +. 0.1 +. 0.2 +. 0.1 +. 0.2)
    (Feam_util.Sim_clock.elapsed clock);
  Alcotest.(check int) "build IDs skipped" 2
    (Feam_toolchain.Build_id.serial () - serial);
  Alcotest.(check int) "probe counters replayed" 2
    (counter "edc.probe_successes");
  Alcotest.(check int) "cache counters count real work only" 1
    (counter "elf.parse_memo.miss");
  Alcotest.(check int) "records replayed" 2
    (List.length
       (List.filter
          (String.starts_with ~prefix:{|{"type":"evidence"|})
          (String.split_on_char '\n' !journal)))

(* The determinant's probes and the copies they stage are scratch: a
   miss and a hit through Tec.evaluate leave the target as they found
   it.  The cell is one whose prediction runs the determinant and stages
   no copy of its own, so the whole target must come out unchanged. *)
let test_probes_leave_no_file () =
  let open Feam_core in
  let sites, binaries =
    Driftrun.build_world params (Driftrun.small_specs ())
      (Driftrun.small_benchmarks ()) []
  in
  let evaluate ?ctx target input =
    Tec.evaluate ?ctx target (Site.base_env target) input
  in
  (* The cell's input, when its prediction runs the determinant and
     stages no copy. *)
  let probing_cell (binary, target) =
    match Migrate.source_bundle binary with
    | Error _ -> None
    | Ok bundle ->
      let input =
        {
          Tec.config = Config.default;
          description = bundle.Bundle.binary_description;
          binary_path = None;
          bundle = Some bundle;
          discovery =
            Edc.discover ~env_type:`Target target (Site.base_env target);
        }
      in
      let d =
        (Vfs.scoped (Site.vfs target) (fun () -> evaluate target input))
          .Predict.determinants
      in
      let stages =
        match d.Predict.libs with
        | Some l -> l.Predict.resolved_by_copies <> []
        | None -> false
      in
      if d.Predict.stack <> None && not stages then Some (target, input)
      else None
  in
  let target, input =
    match List.find_map probing_cell (Migrate.cells sites binaries) with
    | Some cell -> cell
    | None -> Alcotest.fail "no cell runs the determinant without staging"
  in
  let ctx = Eval_ctx.create () in
  Metrics.reset ();
  let before = Fixtures.site_digest [ target ] in
  ignore (evaluate ~ctx target input : Predict.t);
  Alcotest.(check int) "a miss" 1 (counter "tec.stack_memo.miss");
  Alcotest.(check (list string)) "a miss leaves the target as it was" before
    (Fixtures.site_digest [ target ]);
  ignore (evaluate ~ctx target input : Predict.t);
  Alcotest.(check int) "a hit" 1 (counter "tec.stack_memo.hit");
  Alcotest.(check (list string)) "a hit leaves the target as it was" before
    (Fixtures.site_digest [ target ])

let suite =
  ( "stack memo",
    [
      Alcotest.test_case "key: journaling, changed copy, ablation, module, glibc"
        `Quick test_key_misses;
      Alcotest.test_case "a hit redoes records, counters, build IDs, charges"
        `Quick test_hit_redoes_effects;
      Alcotest.test_case "a hit and a miss leave no file" `Quick
        test_probes_leave_no_file;
    ] )
