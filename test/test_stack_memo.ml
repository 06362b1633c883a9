(* The MPI-stack determinant's memo (DESIGN §17).  The oracle runs the
   default matrix as one memo-carrying pass and cell by cell without a
   memo, and demands the same cells, the same simulated clock to the
   last bit, the same probe and resolution counters and the same
   journals.  The key tests pin what must miss; the replay test pins
   what a hit must redo. *)

open Feam_sysmodel
open Feam_evalharness
module Stack_memo = Feam_core.Stack_memo
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

(* The counters a hit replays, by registry key, with their values. *)
let replayed_counters () =
  Metrics.snapshot ()
  |> List.filter_map (fun (k, e) ->
         match e.Metrics.metric with
         | Metrics.Counter c
           when String.starts_with ~prefix:"edc.probe_" k
                || String.starts_with ~prefix:"resolve." k ->
           Some (k, !c)
         | _ -> None)

let counter name = Option.value ~default:0 (Metrics.counter_value name)

(* Run [f] on a fresh default world from a reset registry; return its
   result, the replayed counters it moved and the build-ID serial it
   ended on. *)
let fresh_run f =
  Metrics.reset ();
  let sites, binaries = default_world () in
  let r = f sites binaries in
  (r, replayed_counters (), Feam_toolchain.Build_id.serial ())

let test_run_all_matches_cell_by_cell () =
  let clock_a = Feam_util.Sim_clock.create () in
  let memo_lines, memo_counters, memo_serial =
    fresh_run (fun sites binaries ->
        List.map cell_line
          (Migrate.run_all ~clock:clock_a params sites binaries))
  in
  let hits = counter "tec.stack_memo.hit" in
  let clock_b = Feam_util.Sim_clock.create () in
  let lines, counters, serial =
    fresh_run (fun sites binaries ->
        (* a describe memo as run_all's, so only the stack memo differs
           between the two runs *)
        let ctx = { (Feam_core.Eval_ctx.create ()) with stacks = None } in
        List.map
          (fun (b, t) ->
            cell_line (Migrate.migrate ~clock:clock_b ~ctx params b t))
          (Migrate.cells sites binaries))
  in
  Alcotest.(check bool) "the memo hit" true (hits > 0);
  Alcotest.(check int) "no memo, no lookups" 0 (counter "tec.stack_memo.miss");
  Alcotest.(check (list string)) "the same cells" lines memo_lines;
  Alcotest.(check (float 0.0))
    "the same simulated clock, to the bit"
    (Feam_util.Sim_clock.elapsed clock_b)
    (Feam_util.Sim_clock.elapsed clock_a);
  Alcotest.(check (list (pair string int)))
    "the same edc.probe_* and resolve.* counters" counters memo_counters;
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
    (Stack_memo.find_or_probe memo ~config:Feam_core.Config.default target env
       ~bundle ~target_glibc:(Some (Site.glibc target)) ~candidates:[]
       (fun ~clock:_ ->
         ran := true;
         (None, []))
      : Stack_memo.selection);
  !ran

let test_key_misses () =
  let target, bundle = small_cell () in
  let memo = Stack_memo.create () in
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
      let bytes = Bytes.of_string c.Feam_core.Bdc.copy_bytes in
      let last = Bytes.length bytes - 1 in
      Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
      {
        bundle with
        Feam_core.Bundle.copies =
          { c with Feam_core.Bdc.copy_bytes = Bytes.to_string bytes } :: rest;
      }
    | [] -> Alcotest.fail "the cell's bundle has no copies"
  in
  Alcotest.(check bool) "one copy's bytes changed misses" true
    (missed memo target (Some changed));
  List.iter
    (fun (v : Ablation.variant) ->
      Alcotest.(check bool)
        (v.Ablation.variant_name ^ " bundle misses")
        true
        (missed memo target (Some (v.Ablation.bundle_filter bundle))))
    [ Ablation.no_foreign_probes; Ablation.no_resolution ];
  let install = List.hd (Site.stack_installs target) in
  Alcotest.(check bool) "an env with an extra module misses" true
    (missed memo target
       ~env:(Modules_tool.load_stack (Site.base_env target) install)
       (Some bundle))

(* -- replay ----------------------------------------------------------- *)

let test_hit_replays_effects () =
  let target, bundle = small_cell () in
  let vfs = Site.vfs target in
  let probe_bytes b =
    (List.hd b.Feam_core.Bundle.probes).Feam_core.Bundle.probe_bytes
  in
  let shipped = "/tmp/feam/probes/hello.shipped" in
  (* one effect on every channel a real probe writes to *)
  let work ~bundle ~clock =
    Vfs.add vfs shipped (Vfs.Elf (probe_bytes bundle));
    Vfs.add vfs "/tmp/feam/probes/native" (Vfs.Text "native");
    Feam_flightrec.Recorder.evidence ~stage:"probe" ~kind:"test_stack" [];
    Metrics.incr "edc.probe_successes";
    Metrics.incr "elf.parse_memo.miss";
    ignore (Feam_toolchain.Build_id.next ~site_name:"x" : string);
    Cost.charge (Some clock) 0.1;
    Cost.charge (Some clock) 0.2;
    (None, [ ("stack", "why") ])
  in
  let memo = Stack_memo.create () in
  let clock = Feam_util.Sim_clock.create () in
  let lookup bundle =
    Vfs.remove_tree vfs "/tmp/feam";
    Stack_memo.find_or_probe memo ~clock ~config:Feam_core.Config.default
      target (Site.base_env target) ~bundle:(Some bundle) ~target_glibc:None
      ~candidates:[] (work ~bundle)
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
            { p with probe_bytes = p.probe_bytes ^ "" })
          bundle.Feam_core.Bundle.probes;
    }
  in
  let second = lookup again in
  Feam_flightrec.Recorder.flush ();
  Feam_flightrec.Recorder.disable ();
  Alcotest.(check int) "one hit" 1 (counter "tec.stack_memo.hit");
  Alcotest.(check bool) "the selection is the miss's" true (first = second);
  (match Vfs.find vfs shipped with
  | Some { Vfs.kind = Vfs.Elf b; _ } ->
    Alcotest.(check bool) "the shipped probe holds the current bundle's bytes"
      true (b == probe_bytes again)
  | _ -> Alcotest.fail "the shipped probe was not replayed");
  Alcotest.(check bool) "the native probe was replayed" true
    (Vfs.exists vfs "/tmp/feam/probes/native");
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
          (String.split_on_char '\n' !journal)));
  Vfs.remove_tree vfs "/tmp/feam"

let suite =
  ( "stack memo",
    [
      Alcotest.test_case "run_all matches cell by cell without a memo" `Slow
        test_run_all_matches_cell_by_cell;
      Alcotest.test_case "write_cells matches journal_cell without a memo"
        `Slow test_journals_match_cell_by_cell;
      Alcotest.test_case "key: journaling, changed copy, ablation, module"
        `Quick test_key_misses;
      Alcotest.test_case "a hit replays every effect" `Quick
        test_hit_replays_effects;
    ] )
