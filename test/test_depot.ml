(* Tests for the content-addressed depot: hash stability, store
   intern/pin/GC invariants, on-disk round-trips, depot-backed manifests
   (byte-identical export to the legacy bundle format), transfer-plan
   dedup against the possession index, and byte-for-byte plan replay
   from a flight-recorder journal. *)

open Feam_core
module Chash = Feam_util.Chash
module Store = Feam_depot.Store
module Planner = Feam_depot.Planner

let gen_bytes = QCheck.Gen.(map Bytes.to_string (bytes_size (int_range 0 512)))

(* -- Content hash ------------------------------------------------------- *)

let prop_chash_stable =
  QCheck.Test.make ~name:"chash: deterministic, 32-hex" ~count:200
    (QCheck.make ~print:String.escaped gen_bytes) (fun s ->
      let k = Chash.of_bytes s in
      Fixtures.same_key k (Chash.of_bytes s)
      && String.length (Chash.to_hex k) = 32
      && Chash.of_hex (Chash.to_hex k) = Some k)

let prop_chash_distinct =
  QCheck.Test.make ~name:"chash: distinct bytes, distinct keys" ~count:200
    QCheck.(pair (make ~print:String.escaped gen_bytes)
              (make ~print:String.escaped gen_bytes))
    (fun (a, b) ->
      a = b || not (Fixtures.same_key (Chash.of_bytes a) (Chash.of_bytes b)))

(* -- Store: intern, pins, GC -------------------------------------------- *)

let intern_str ?deps store s =
  Store.intern store
    ~meta:(Store.meta ?deps ~size:(String.length s) ())
    (Feam_elf.Reader.image s)

let test_intern_hit_miss () =
  let store = Store.create () in
  let st1, k1 = intern_str store "alpha" in
  let st2, k2 = intern_str store "alpha" in
  let st3, k3 = intern_str store "beta" in
  Alcotest.(check string) "first is a miss" "miss" (if st1 = Store.Hit then "hit" else "miss");
  Alcotest.(check string) "second is a hit" "hit" (if st2 = Store.Hit then "hit" else "miss");
  Alcotest.(check string) "other bytes miss" "miss" (if st3 = Store.Hit then "hit" else "miss");
  Alcotest.(check bool) "same key" true (Fixtures.same_key k1 k2);
  Alcotest.(check bool) "distinct key" false (Fixtures.same_key k1 k3);
  Alcotest.(check int) "two objects" 2 (Store.object_count store);
  Alcotest.(check int) "bytes counted once" 9 (Store.total_bytes store)

(* Interning keys a payload by its handle's content key: the same handle
   twice is a hit, under the key of the handle's bytes. *)
let test_intern_reads_the_handle_key () =
  let store = Store.create () in
  let image = Feam_elf.Reader.image "handle payload" in
  let meta = Store.meta ~size:14 () in
  let st1, k1 = Store.intern store ~meta image in
  let st2, k2 = Store.intern store ~meta image in
  Alcotest.(check bool) "first is a miss" true (st1 = Store.Miss);
  Alcotest.(check bool) "same handle again is a hit" true (st2 = Store.Hit);
  Alcotest.(check bool) "one key" true (Fixtures.same_key k1 k2);
  Alcotest.(check string) "the key of the handle's bytes"
    (Chash.to_hex (Chash.of_bytes (Feam_elf.Reader.image_bytes image)))
    (Chash.to_hex k1)

let test_gc_keeps_pinned_and_roots () =
  let store = Store.create () in
  let _, ka = intern_str store "aaaa" in
  let _, kb = intern_str store ~deps:[ Chash.to_hex ka ] "bbbb" in
  let _, kc = intern_str store "cccc" in
  let _, kd = intern_str store "dddd" in
  (* roots: kb — marks kb and, through its recorded dep, ka. *)
  let report = Store.gc ~roots:[ kb; kd ] store in
  Alcotest.(check bool) "root kept" true (Store.mem store kb);
  Alcotest.(check bool) "dep of root kept" true (Store.mem store ka);
  Alcotest.(check bool) "second root kept" true (Store.mem store kd);
  Alcotest.(check bool) "unreferenced swept" false (Store.mem store kc);
  Alcotest.(check int) "one swept" 1 (List.length report.Store.swept);
  Alcotest.(check int) "three kept" 3 report.Store.kept;
  Alcotest.(check int) "swept bytes" 4 report.Store.swept_bytes

(* Random stores with random dep edges, pins, and roots: GC must never
   sweep a pinned object or anything reachable from pins + roots. *)
let prop_gc_never_sweeps_reachable =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* pins = list_size (int_range 0 3) (int_range 0 (n - 1)) in
      let* roots = list_size (int_range 0 3) (int_range 0 (n - 1)) in
      let* deps = list_size (int_range 0 (2 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, pins, roots, deps))
  in
  QCheck.Test.make ~name:"gc: pinned and reachable objects survive" ~count:100
    (QCheck.make
       ~print:(fun (n, pins, roots, deps) ->
         Printf.sprintf "n=%d pins=%s roots=%s deps=%s" n
           (String.concat "," (List.map string_of_int pins))
           (String.concat "," (List.map string_of_int roots))
           (String.concat ","
              (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) deps)))
       gen)
    (fun (n, pins, roots, deps) ->
      let store = Store.create () in
      let payload i = Printf.sprintf "object-%d" i in
      let keys =
        Array.init n (fun i ->
            let dep_hexes =
              List.filter_map
                (fun (a, b) ->
                  if a = i && b < i then
                    Some (Chash.to_hex (Chash.of_bytes (payload b)))
                  else None)
                deps
            in
            snd (intern_str store ~deps:dep_hexes (payload i)))
      in
      (* expected survivors: closure over recorded deps from pins+roots *)
      let marked = Hashtbl.create 16 in
      let dep_edges i = List.filter_map (fun (a, b) -> if a = i && b < i then Some b else None) deps in
      let rec mark i =
        if not (Hashtbl.mem marked i) then begin
          Hashtbl.replace marked i ();
          List.iter mark (dep_edges i)
        end
      in
      List.iter mark pins;
      List.iter mark roots;
      ignore (Store.gc ~roots:(List.map (fun i -> keys.(i)) (pins @ roots)) store);
      List.for_all
        (fun i -> Store.mem store keys.(i))
        (List.of_seq (Hashtbl.to_seq_keys marked)))

let test_save_load_roundtrip () =
  let store = Store.create () in
  let _, ka = intern_str store "payload one" in
  let _, _ =
    Store.intern store
      ~meta:
        (Store.meta ~soname:"libx.so.1" ~version:"1.2" ~provider:"test"
           ~origin:"/lib/libx.so.1"
           ~deps:[ Chash.to_hex ka ]
           ~size:11 ())
      (Feam_elf.Reader.image "payload two")
  in
  let dir = Filename.temp_dir "feam_depot_test" "" in
  Store.save_dir store dir;
  let loaded =
    match Store.open_dir dir with
    | Ok s -> s
    | Error e -> Alcotest.failf "load_dir: %s" e
  in
  Alcotest.(check string) "listings identical" (Store.listing store)
    (Store.listing loaded);
  Alcotest.(check int) "bytes identical" (Store.total_bytes store)
    (Store.total_bytes loaded)

(* A saved one-object depot, its object's key, and its shard directory:
   the starting point for the damaged-depot cases below. *)
let saved_depot () =
  let store = Store.create () in
  let _, key = intern_str store "payload one" in
  let dir = Filename.temp_dir "feam_depot_test" "" in
  Store.save_dir store dir;
  let hex = Chash.to_hex key in
  (dir, hex, Filename.concat (Filename.concat dir "objects") (String.sub hex 0 2))

let check_rejected what dir ~mentions =
  match Store.open_dir dir with
  | Ok _ -> Alcotest.failf "%s: load_dir accepted a damaged depot" what
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: error %S mentions %S" what e mentions)
      true
      (Feam_sysmodel.Str_split.contains ~sub:mentions e)

let test_load_rejects_directory () =
  let dir, _, shard = saved_depot () in
  Sys.mkdir (Filename.concat shard "stray") 0o755;
  check_rejected "directory in a shard" dir ~mentions:"stray"

let test_load_rejects_wrong_shard () =
  let dir, hex, shard = saved_depot () in
  let wrong = Filename.concat (Filename.concat dir "objects") "zz" in
  Sys.mkdir wrong 0o755;
  Sys.rename (Filename.concat shard hex) (Filename.concat wrong hex);
  check_rejected "payload under the wrong shard" dir ~mentions:("zz/" ^ hex)

(* -- Depot-backed manifests --------------------------------------------- *)

let make_bundle () =
  let site, installs = Fixtures.small_site () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
  in
  let env = Fixtures.session_env site install in
  Fixtures.run_exn
    (Phases.source_phase Config.default site env ~binary_path:path)

let test_manifest_export_byte_identical () =
  let bundle = make_bundle () in
  let store = Store.create () in
  let manifest = Bundle_manifest.of_bundle store bundle in
  let bundle' = Fixtures.run_exn (Bundle_manifest.to_bundle store manifest) in
  Alcotest.(check string) "legacy render byte-identical"
    (Bundle_io.render bundle) (Bundle_io.render bundle')

let test_manifest_render_parse_roundtrip () =
  let bundle = make_bundle () in
  let store = Store.create () in
  let manifest = Bundle_manifest.of_bundle store bundle in
  let text = Bundle_io.render_manifest manifest in
  Alcotest.(check bool) "has manifest magic" true
    (String.starts_with ~prefix:"FEAM-MANIFEST 1" text);
  let manifest' =
    Fixtures.run_exn
      (Result.map_error Bundle_io.load_error_to_string
         (Bundle_io.parse_manifest text))
  in
  Alcotest.(check string) "render stable across parse" text
    (Bundle_io.render_manifest manifest');
  (* the re-parsed manifest still resolves to the same legacy bytes *)
  let bundle' = Fixtures.run_exn (Bundle_manifest.to_bundle store manifest') in
  Alcotest.(check string) "export after reparse byte-identical"
    (Bundle_io.render bundle) (Bundle_io.render bundle')

let test_export_fails_on_missing_object () =
  let bundle = make_bundle () in
  let store = Store.create () in
  let manifest = Bundle_manifest.of_bundle store bundle in
  ignore (Store.gc store);
  (* unpinned, no roots: everything swept *)
  Alcotest.(check bool) "export reports the missing object" true
    (Result.is_error (Bundle_manifest.to_bundle store manifest))

(* -- Transfer planner --------------------------------------------------- *)

let want i size = Planner.want ~label:(Printf.sprintf "lib%d.so" i)
    ~key:(Chash.of_bytes (Printf.sprintf "payload-%d" i))
    ~size

let test_plan_dedup_and_possession () =
  let wants = [ want 1 100; want 2 200; want 1 100; want 3 300 ] in
  let possession = Planner.Possession.create () in
  let plan =
    Planner.compute ~site:"s1"
      ~possessed:(Planner.Possession.mem possession ~site:"s1")
      wants
  in
  Alcotest.(check int) "duplicate want collapsed" 3 (List.length plan.Planner.items);
  Alcotest.(check int) "shipped bytes" 600 plan.Planner.shipped_bytes;
  Alcotest.(check int) "legacy counts duplicates" 700 (Planner.legacy_bytes wants);
  Planner.Possession.commit possession plan;
  let again =
    Planner.compute ~site:"s1"
      ~possessed:(Planner.Possession.mem possession ~site:"s1")
      wants
  in
  Alcotest.(check int) "second plan ships nothing" 0 (List.length again.Planner.items);
  Alcotest.(check int) "all hits" 3 again.Planner.hits;
  (* a different site possesses nothing *)
  let other =
    Planner.compute ~site:"s2"
      ~possessed:(Planner.Possession.mem possession ~site:"s2")
      wants
  in
  Alcotest.(check int) "other site ships all" 3 (List.length other.Planner.items)

let test_plan_render_deterministic () =
  let wants = [ want 1 100; want 2 200 ] in
  let plan = Planner.compute ~site:"s" ~possessed:(fun _ -> false) wants in
  let plan' = Planner.compute ~site:"s" ~possessed:(fun _ -> false) wants in
  Alcotest.(check string) "renders byte-identical" (Planner.render plan)
    (Planner.render plan')

(* -- Plan journal replay ------------------------------------------------ *)

let test_plan_journal_replays_byte_for_byte () =
  let wants = [ want 1 100; want 2 200; want 1 100; want 3 300 ] in
  let possession = Planner.Possession.create () in
  Planner.Possession.add possession ~site:"s1" (Chash.of_bytes "payload-2");
  let plan, text =
    Test_flightrec.with_recorder (fun () ->
        let plan =
          Planner.compute ~site:"s1"
            ~possessed:(Planner.Possession.mem possession ~site:"s1")
            wants
        in
        Planner.journal ~wants plan;
        plan)
  in
  let journal =
    match Feam_flightrec.Journal.parse text with
    | Ok j -> j
    | Error e -> Alcotest.failf "journal does not parse: %s" e
  in
  Alcotest.(check bool) "journal carries a plan" true (Replay.has_plan journal);
  let outcome = Fixtures.run_exn (Replay.plan_of_journal journal) in
  Alcotest.(check bool) "replay matches byte-for-byte" true
    outcome.Replay.plan_matches;
  Alcotest.(check string) "replayed rendering equals live rendering"
    (Planner.render plan) outcome.Replay.plan_rendered

(* The depot section reports its own pass's describe-memo lookups, not
   the process-wide counters an earlier pass (here the whole matrix)
   already moved. *)
let test_describe_cache_line_is_its_own () =
  let open Feam_evalharness in
  let params = Params.default in
  let world () =
    let sites = Sites.build_all params in
    (sites, Testset.build params sites (Feam_suites.Npb.all @ Feam_suites.Specmpi.all))
  in
  Feam_obs.Metrics.reset ();
  let sites, binaries = world () in
  ignore (Migrate.run_all params sites binaries : Migrate.migration list);
  let sites, binaries = world () in
  let rendered = Depot_stats.render (Depot_stats.run sites binaries) in
  Alcotest.(check bool) "the depot pass's own hit rate" true
    (Test_flightrec.contains
       ~affix:"  describe cache: 2638 hits / 444 misses (85.6% hit rate)\n"
       rendered)

let suite =
  ( "depot",
    [
      QCheck_alcotest.to_alcotest prop_chash_stable;
      QCheck_alcotest.to_alcotest prop_chash_distinct;
      Alcotest.test_case "intern hit/miss" `Quick test_intern_hit_miss;
      Alcotest.test_case "intern reads the handle key" `Quick test_intern_reads_the_handle_key;
      Alcotest.test_case "gc keeps pinned and roots" `Quick
        test_gc_keeps_pinned_and_roots;
      QCheck_alcotest.to_alcotest prop_gc_never_sweeps_reachable;
      Alcotest.test_case "save/load round-trip" `Quick test_save_load_roundtrip;
      Alcotest.test_case "load rejects a directory in a shard" `Quick
        test_load_rejects_directory;
      Alcotest.test_case "load rejects a misfiled payload" `Quick
        test_load_rejects_wrong_shard;
      Alcotest.test_case "manifest export byte-identical" `Quick
        test_manifest_export_byte_identical;
      Alcotest.test_case "manifest render/parse round-trip" `Quick
        test_manifest_render_parse_roundtrip;
      Alcotest.test_case "export fails on missing object" `Quick
        test_export_fails_on_missing_object;
      Alcotest.test_case "plan dedup and possession" `Quick
        test_plan_dedup_and_possession;
      Alcotest.test_case "plan render deterministic" `Quick
        test_plan_render_deterministic;
      Alcotest.test_case "plan journal replays byte-for-byte" `Quick
        test_plan_journal_replays_byte_for_byte;
      Alcotest.test_case "describe-cache line counts its own pass" `Slow
        test_describe_cache_line_is_its_own;
    ] )
