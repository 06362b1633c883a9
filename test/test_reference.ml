(* The reference oracle (DESIGN §17): every cache is invisible.  Each
   leg runs a pass cached and under [Eval_ctx.reference], which holds no
   cache, and demands the same bytes: (a) the matrix's cells, clock,
   world serial and work counters; (b) its journals and work
   counters; (c) the agree corpus's report, journal and work counters.
   Leg (d) is test_drift.ml's live-world test.  The cached side must
   hit every cache it holds. *)

open Feam_evalharness
module Eval_ctx = Feam_core.Eval_ctx
module Metrics = Feam_obs.Metrics
module Harness = Feam_agree.Harness
module Recorder = Feam_flightrec.Recorder

let counter name = Option.value ~default:0 (Metrics.counter_value name)

(* The caches of a context [Eval_ctx.create] makes. *)
let caches =
  [ "bdc.describe_cache"; "tec.stack_memo"; "phases.source_memo";
    "edc.discover_memo"; "dynlinker.closure_memo"; "toolchain.template" ]

(* The caches whose [suffix] counter moved since the registry's last
   reset. *)
let moved suffix = List.filter (fun c -> counter (c ^ suffix) > 0) caches

let cell_line (m : Migrate.migration) =
  let outcome = Feam_dynlinker.Exec.outcome_to_string in
  Migrate.(
    Printf.sprintf "%s | %s | %b | %s | %b | %s | %s | %s | %s"
      m.binary.Testset.id m.target_name m.basic_ready
      (String.concat "; " m.basic_reasons) m.extended_ready
      (String.concat "; " m.extended_reasons) (String.concat "," m.staged_copies)
      (outcome m.actual_before) (outcome m.actual_after))

(* Every counter but those that count real work (the cache families
   and [bdc.describe{method=…}], which counts describe-memo misses), with
   its value: the counters a cache hit must leave as a miss would.
   [flightrec.records] is among them, so a tape that took it would count
   a replayed record twice. *)
let work_counters () =
  List.filter_map
    (fun (k, e) ->
      match e.Metrics.metric with
      | Metrics.Counter c when not (Metrics.counts_work e.Metrics.name) ->
        Some (Printf.sprintf "%s %d" k !c)
      | _ -> None)
    (Metrics.snapshot ())

(* One side of a leg: [f]'s output from a reset registry, with the
   caches it hit and the caches it looked up. *)
let side f () =
  Metrics.reset ();
  let output = f () in
  (output, moved ".hit", moved ".hit" @ moved ".miss")

(* A fresh Table II world at [seed]. *)
let world seed =
  let params = { Params.default with Params.seed } in
  let sites = Sites.build_all params in
  let suites = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  (params, sites, Testset.build params sites suites)

(* The cached side hits every cache in [held], the reference looks none
   up, and their outputs are the same bytes; a failure shows where they
   part. *)
let leg what ?(held = caches) cached reference =
  let c, c_hit, _ = cached () in
  let r, _, r_looked_up = reference () in
  Alcotest.(check (list string)) (what ^ ": the cached side hits") held c_hit;
  Alcotest.(check (list string))
    (what ^ ": the reference looks up no cache") [] r_looked_up;
  Alcotest.(check bool) (what ^ ": the output is not empty") true
    (String.length r > 10_000);
  if not (String.equal c r) then begin
    let i = ref 0 in
    while !i < min (String.length c) (String.length r) && c.[!i] = r.[!i] do incr i done;
    let from s = String.sub s !i (min 200 (String.length s - !i)) in
    Alcotest.failf "%s: byte %d differs: cached %S, reference %S" what !i (from c) (from r)
  end

(* (a) Migrate.run_all against the cells one by one. *)
let matrix seed evaluate =
  side @@ fun () ->
  let params, sites, binaries = world seed in
  let clock = Feam_util.Sim_clock.create () in
  let cells =
    List.map cell_line
      (Feam_util.Effects.with_clock clock @@ fun () ->
       evaluate params sites binaries)
  in
  String.concat "\n"
    (cells
    @ [ Printf.sprintf "clock %h" (Feam_util.Sim_clock.elapsed clock);
        (* a memo compiles only probes, which take no serial: a non-probe
           compile inside one would leave a hit's world behind *)
        Printf.sprintf "serial %d"
          (Feam_sysmodel.Build_world.serial (Feam_sysmodel.Site.world (List.hd sites))) ]
    @ work_counters ())

let test_matrix seed () =
  leg (Printf.sprintf "matrix, seed %d" seed)
    (matrix seed (fun params -> Migrate.run_all params))
    (matrix seed (fun params sites binaries ->
         List.map
           (fun (b, t) -> Migrate.migrate ~ctx:Eval_ctx.reference params b t)
           (Migrate.cells sites binaries)))

(* (b) Journals.write_cells against journal_cell one cell at a time. *)
let journals seed run =
  side @@ fun () ->
  let _, sites, binaries = world seed in
  let bodies = Buffer.create (1 lsl 20) in
  run ~write:(fun ~name body -> Buffer.add_string bodies (name ^ "\n" ^ body))
    sites binaries;
  String.concat "\n" (Buffer.contents bodies :: work_counters ())

let test_journals seed () =
  leg (Printf.sprintf "journals, seed %d" seed)
    (journals seed (fun ~write sites binaries ->
         ignore (Journals.write_cells ~write sites binaries : string list)))
    (journals seed (fun ~write sites binaries ->
         List.iter
           (fun (b, t) ->
             ignore (Journals.journal_cell ~ctx:Eval_ctx.reference ~write b t : string))
           (Migrate.cells sites binaries)))

(* (c) Harness.run_corpus against run_one one scenario at a time: the
   report, the corpus journal and the work counters but the corpus's
   own tallies ([agree.*]), which run_one does not keep.  The corpus
   holds the describe memo and the template table. *)
let corpus runs =
  side @@ fun () ->
  let runs, journal =
    Test_flightrec.with_recorder (fun () ->
        let runs = runs () in
        Harness.record_report runs;
        runs)
  in
  let tallies = List.filter (fun c -> not (String.starts_with ~prefix:"agree." c)) in
  String.concat "\n"
    ((Harness.render_report runs ^ journal) :: tallies (work_counters ()))

let test_agree seed () =
  let count = 500 in
  leg (Printf.sprintf "agree, seed %d" seed) ~held:[ "bdc.describe_cache"; "toolchain.template" ]
    (corpus (Harness.run_corpus ~seed ~count))
    (corpus (fun () ->
         List.init count (fun index ->
             Harness.run_one ~ctx:Eval_ctx.reference (Scengen.build ~seed ~index ()))))

(* A clock in scope changes nothing but the clock: a [Migrate.run_all]
   pass inside one and a pass outside every scope give the same cells,
   journal and work counters. *)
let test_clock_scope_is_invisible () =
  let pass clocked =
    Metrics.reset ();
    let params, sites, binaries = world 42 in
    let run () = Migrate.run_all params sites binaries in
    let clock = Feam_util.Sim_clock.create () in
    let cells, journal =
      Test_flightrec.with_recorder (fun () ->
          if clocked then Feam_util.Effects.with_clock clock run else run ())
    in
    ( String.concat "\n" (List.map cell_line cells @ (journal :: work_counters ())),
      Feam_util.Sim_clock.elapsed clock )
  in
  let scoped, charged = pass true in
  let unscoped, _ = pass false in
  Alcotest.(check bool) "the scope's clock was charged" true (charged > 0.0);
  Alcotest.(check bool) "the pass journaled" true (String.length scoped > 100_000);
  Alcotest.(check bool) "the cells, journal and counters are the same bytes" true
    (String.equal scoped unscoped)

let suite =
  let case seed (name, test) =
    Alcotest.test_case (Printf.sprintf "seed %d: %s equals the reference" seed name) `Slow
      (test seed)
  in
  let legs = [ ("run_all", test_matrix); ("write_cells", test_journals); ("run_corpus", test_agree) ] in
  ( "reference",
    List.concat_map (fun seed -> List.map (case seed) legs) [ 42; 7 ]
    @ [ Alcotest.test_case "seed 42: a clock in scope leaves run_all's output as it is"
          `Slow test_clock_scope_is_invisible ] )
