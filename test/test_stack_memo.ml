(* The pass memo's MPI-stack table (DESIGN §17).  The oracle runs the
   default matrix as one memo-carrying pass and cell by cell without a
   pass memo, and demands the same cells, the same simulated clock to
   the last bit, the same counters outside the cache families and the
   same journals.  The key tests pin what must miss; the replay test
   pins what a hit must redo, and the digest test that neither a hit nor
   a miss leaves a file behind. *)

open Feam_sysmodel
open Feam_evalharness
module Pass_memo = Feam_core.Pass_memo
module Metrics = Feam_obs.Metrics

let params = Params.default

let default_world () =
  let sites = Sites.build_all params in
  let binaries =
    Testset.build params sites (Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
  in
  (sites, binaries)

let cell_line (m : Migrate.migration) =
  String.concat " | "
    [
      m.Migrate.binary.Testset.id;
      m.Migrate.target_name;
      string_of_bool m.Migrate.basic_ready;
      String.concat "; " m.Migrate.basic_reasons;
      string_of_bool m.Migrate.extended_ready;
      String.concat "; " m.Migrate.extended_reasons;
      String.concat "," m.Migrate.staged_copies;
      Feam_dynlinker.Exec.outcome_to_string m.Migrate.actual_before;
      Feam_dynlinker.Exec.outcome_to_string m.Migrate.actual_after;
    ]

(* Every counter outside the cache families, by registry key, with its
   value: the counters a memo hit must leave as a miss would. *)
let work_counters () =
  let cache name =
    List.exists
      (fun suffix -> String.ends_with ~suffix name)
      [ ".hit"; ".miss"; ".saved_bytes" ]
  in
  Metrics.snapshot ()
  |> List.filter_map (fun (k, e) ->
         match e.Metrics.metric with
         | Metrics.Counter c when not (cache e.Metrics.name) -> Some (k, !c)
         | _ -> None)

let counter name = Option.value ~default:0 (Metrics.counter_value name)

(* Run [f] on a fresh default world from a reset registry; return its
   result, the work counters it moved and the build-ID serial it ended
   on. *)
let fresh_run f =
  Metrics.reset ();
  let sites, binaries = default_world () in
  let r = f sites binaries in
  (r, work_counters (), Feam_toolchain.Build_id.serial ())

let test_run_all_matches_cell_by_cell () =
  let clock_a = Feam_util.Sim_clock.create () in
  let corpus = ref 0 in
  let memo_lines, memo_counters, memo_serial =
    fresh_run (fun sites binaries ->
        corpus := List.length binaries;
        List.map cell_line
          (Migrate.run_all ~clock:clock_a params sites binaries))
  in
  let hits = counter "tec.stack_memo.hit" in
  let source_hits = counter "phases.source_memo.hit" in
  let source_misses = counter "phases.source_memo.miss" in
  let clock_b = Feam_util.Sim_clock.create () in
  let lines, counters, serial =
    fresh_run (fun sites binaries ->
        (* a describe memo as run_all's, so only the pass memo differs
           between the two runs *)
        let ctx = { (Feam_core.Eval_ctx.create ()) with memo = None } in
        List.map
          (fun (b, t) ->
            cell_line (Migrate.migrate ~clock:clock_b ~ctx params b t))
          (Migrate.cells sites binaries))
  in
  Alcotest.(check bool) "the memo hit" true (hits > 0);
  Alcotest.(check bool) "the source memo hit" true (source_hits > 0);
  Alcotest.(check int) "264 binaries" 264 !corpus;
  Alcotest.(check int) "one source phase per binary" !corpus source_misses;
  Alcotest.(check int) "no memo, no lookups" 0 (counter "tec.stack_memo.miss");
  Alcotest.(check int) "no memo, no source lookups" 0
    (counter "phases.source_memo.miss");
  Alcotest.(check (list string)) "the same cells" lines memo_lines;
  Alcotest.(check (float 0.0))
    "the same simulated clock, to the bit"
    (Feam_util.Sim_clock.elapsed clock_b)
    (Feam_util.Sim_clock.elapsed clock_a);
  Alcotest.(check (list (pair string int)))
    "the same counters outside the cache families" counters memo_counters;
  Alcotest.(check int) "the same build-ID serial" serial memo_serial

let test_journals_match_cell_by_cell () =
  let journals run =
    let bodies = Buffer.create (1 lsl 20) in
    let write ~name body =
      Buffer.add_string bodies name;
      Buffer.add_string bodies body
    in
    let _, _, _ = fresh_run (run ~write) in
    Buffer.contents bodies
  in
  let memo =
    journals (fun ~write sites binaries ->
        ignore (Journals.write_cells ~write sites binaries : string list))
  in
  let hits = counter "tec.stack_memo.hit" in
  let plain =
    journals (fun ~write sites binaries ->
        List.iter
          (fun (b, t) -> ignore (Journals.journal_cell ~write b t : string))
          (Migrate.cells sites binaries))
  in
  Alcotest.(check bool) "the memo hit" true (hits > 0);
  Alcotest.(check bool) "the same journals, byte for byte" true
    (String.equal memo plain)

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

(* Look [bundle] and [env] up in [memo]; true when the probe ran. *)
let missed memo target ?(env = Site.base_env target) bundle =
  let ran = ref false in
  ignore
    (Pass_memo.find_or_probe memo ~config:Feam_core.Config.default target env
       ~bundle ~target_glibc:(Some (Site.glibc target)) ~candidates:[]
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
      Alcotest.test_case "run_all matches cell by cell without a memo" `Slow
        test_run_all_matches_cell_by_cell;
      Alcotest.test_case "write_cells matches journal_cell without a memo"
        `Slow test_journals_match_cell_by_cell;
      Alcotest.test_case "key: journaling, changed copy, ablation, module"
        `Quick test_key_misses;
      Alcotest.test_case "a hit redoes records, counters, build IDs, charges"
        `Quick test_hit_redoes_effects;
      Alcotest.test_case "a hit and a miss leave no file" `Quick
        test_probes_leave_no_file;
    ] )
