(* The pass memo's discovery table (DESIGN §17).  test_reference.ml
   checks it end to end, against a pass with no cache.  The key tests
   here pin what must miss and what must hit; the replay test pins what
   a hit must redo; the guard test pins that a scoped write discovery
   reads is never served stale.  Also here: the effect tape every memo
   keeps (nested captures, which a discovery missed inside a
   source-phase miss needs, the counter rule and charges under a clock's
   scope), a miss that raises, and the describe memo's tape and the
   tool flags in its key. *)

open Feam_sysmodel
module Edc = Feam_core.Edc
module Eval_ctx = Feam_core.Eval_ctx
module Metrics = Feam_obs.Metrics
module Recorder = Feam_flightrec.Recorder
module Effects = Feam_util.Effects
module Json = Feam_util.Json

let counter ?labels name =
  Option.value ~default:0 (Metrics.counter_value ?labels name)

let render d = Json.render (Feam_core.Discovery.to_json d)

(* Discover [site] under [ctx] (default: its base environment, as a
   target); true when the lookup missed. *)
let missed ctx ?(env_type = `Target) ?env site =
  let env = Option.value env ~default:(Site.base_env site) in
  let misses = counter "edc.discover_memo.miss" in
  ignore (Edc.discover ~ctx ~env_type site env : Feam_core.Discovery.t);
  counter "edc.discover_memo.miss" > misses

(* -- the key ------------------------------------------------------------ *)

let test_key () =
  let site, installs = Fixtures.small_site () in
  let vfs = Site.vfs site in
  let ctx = Eval_ctx.create () in
  let check what expected got = Alcotest.(check bool) what expected got in
  check "first lookup misses" true (missed ctx site);
  check "the same inputs hit" false (missed ctx site);
  check "another environment type misses" true
    (missed ctx ~env_type:`Guaranteed site);
  check "an env with a stack loaded misses" true
    (missed ctx ~env:(Fixtures.session_env site (List.hd installs)) site);
  check "another env binding misses" true
    (missed ctx ~env:(Env.set (Site.base_env site) "FEAM_TEST" "1") site);
  let journaled =
    Recorder.with_journal ~tool:"test" ~emit:ignore (fun () -> missed ctx site)
  in
  check "journaling is its own key" true journaled;
  (* Discovery reads no file under the staging directory, so a scoped
     write there leaves every entry serving, even one named like an MPI
     library. *)
  Vfs.scoped vfs (fun () ->
      Vfs.add vfs
        (Feam_evalharness.Migrate.migrated_dir ^ "/lib/libmpi.so.0")
        (Vfs.Text "staged");
      check "a scoped write under the staging directory hits" false
        (missed ctx site));
  check "after the scope the entry still serves" false (missed ctx site);
  Site.set_ld_cache_current site false;
  check "another ld-cache flag misses" true (missed ctx site);
  Site.set_ld_cache_current site true;
  check "the first flag's entry serves again" false (missed ctx site);
  Vfs.add vfs "/home/user/notes.txt" (Vfs.Text "a lasting write");
  check "a lasting write misses" true (missed ctx site)

(* -- replay ------------------------------------------------------------- *)

(* One discovery under an armed recorder and a fresh clock: its result,
   clock, [edc.discoveries] moves and journal. *)
let journaled discover =
  let clock = Feam_util.Sim_clock.create () in
  let labels = [ ("env", "target") ] in
  let before = counter ~labels "edc.discoveries" in
  let d, journal =
    Test_flightrec.with_recorder (fun () -> Effects.with_clock clock discover)
  in
  ( render d,
    Feam_util.Sim_clock.elapsed clock,
    counter ~labels "edc.discoveries" - before,
    journal )

let test_hit_replays () =
  let site, _ = Fixtures.small_site () in
  let env = Site.base_env site in
  let discover ctx () = Edc.discover ~ctx ~env_type:`Target site env in
  let ctx = Eval_ctx.create () in
  let reference = journaled (discover Eval_ctx.reference) in
  let miss = journaled (discover ctx) in
  let hits = counter "edc.discover_memo.hit" in
  let hit = journaled (discover ctx) in
  Alcotest.(check int) "the second lookup hits" 1
    (counter "edc.discover_memo.hit" - hits);
  let r, clock, discoveries, journal = reference in
  Alcotest.(check bool) "the reference charged its tools" true (clock > 0.0);
  Alcotest.(check bool) "the reference journaled its facts" true
    (Str_split.contains ~sub:{|"stage":"edc"|} journal);
  List.iter
    (fun (what, (r', clock', discoveries', journal')) ->
      Alcotest.(check string) (what ^ ": the discovery") r r';
      Alcotest.(check (float 0.0)) (what ^ ": the charges") clock clock';
      Alcotest.(check int) (what ^ ": edc.discoveries") discoveries discoveries';
      Alcotest.(check string) (what ^ ": the journal") journal journal')
    [ ("a miss", miss); ("a hit", hit) ]

(* -- the scoped-write guard ---------------------------------------------- *)

(* Inside a scope, [change] makes a write discovery reads.  The cached
   discovery must equal a reference one, which the write changed, and
   the memo must neither serve nor keep it. *)
let guarded ?modules_flavor what change =
  let site, _ = Fixtures.small_site ?modules_flavor () in
  let vfs = Site.vfs site in
  let env = Site.base_env site in
  let ctx = Eval_ctx.create () in
  let discover ctx = render (Edc.discover ~ctx ~env_type:`Target site env) in
  let before = discover ctx in
  let lookups () =
    counter "edc.discover_memo.hit" + counter "edc.discover_memo.miss"
  in
  Vfs.scoped vfs (fun () ->
      change site;
      let looked_up = lookups () in
      let cached = discover ctx in
      Alcotest.(check string) (what ^ ": equals the reference")
        (discover Eval_ctx.reference) cached;
      Alcotest.(check bool) (what ^ ": the write shows") true (cached <> before);
      Alcotest.(check int) (what ^ ": no lookup") looked_up (lookups ()));
  Alcotest.(check string) (what ^ ": the scope's discovery was not kept")
    before (discover ctx)

let test_guard () =
  guarded "a rewritten release file" (fun site ->
      Vfs.add (Site.vfs site) "/etc/redhat-release"
        (Vfs.Text "Scientific Linux release 9.9 (Test)\n"));
  guarded "a removed libc.so.6" (fun site ->
      match Utilities.find_libc site with
      | Some path -> Vfs.remove (Site.vfs site) path
      | None -> Alcotest.fail "the site has no libc.so.6");
  (* Without a module tool the stacks come from the path search. *)
  guarded ~modules_flavor:Site.No_tool "an added MPI library under /opt"
    (fun site ->
      Vfs.add (Site.vfs site) "/opt/mpich2-1.4-gnu/lib/libmpi.so"
        (Vfs.Text "library"))

(* -- the effect tape ------------------------------------------------------- *)

let show = function
  | Effects.Count (name, _, by) -> Printf.sprintf "count %s+%d" name by
  | Record (kind, _) -> "record " ^ kind
  | Charge seconds -> Printf.sprintf "charge %g" seconds

(* Every channel in program order, nested captures, a raising inner
   capture and a replay inside a capture. *)
let test_captures_nest () =
  Metrics.reset ();
  Recorder.with_journal ~tool:"test" ~emit:ignore @@ fun () ->
  let clock = Feam_util.Sim_clock.create () in
  let inner, outer =
    Effects.capture @@ fun () ->
    Metrics.incr "a.before";
    Recorder.record "before";
    Cost.charge 0.5;
    (* counts real work: on no tape *)
    Metrics.incr "a.memo.hit";
    let (), inner =
      Effects.capture @@ fun () ->
      Metrics.incr ~by:2 "b.inner";
      Recorder.record "inner";
      Effects.with_clock clock (fun () -> Cost.charge 0.25)
    in
    (* a raising inner capture: what it did before raising stays with
       the outer one, and the outer keeps capturing *)
    (try
       ignore
         (Effects.capture (fun () ->
              Metrics.incr "b.raised";
              Recorder.record "raised";
              failwith "inner"))
     with Failure _ -> ());
    Effects.with_clock clock (fun () ->
        Feam_core.Pass_memo.replay { value = (); effects = inner });
    Metrics.incr "a.after";
    inner
  in
  let inner_events = [ "count b.inner+2"; "record inner"; "charge 0.25" ] in
  Alcotest.(check (list string)) "the inner tape, every kind in order"
    inner_events (List.map show inner);
  Alcotest.(check (list string)) "the outer tape holds the inner's and the replay's"
    ([ "count a.before+1"; "record before"; "charge 0.5" ]
    @ inner_events
    @ [ "count b.raised+1"; "record raised" ]
    @ inner_events @ [ "count a.after+1" ])
    (List.map show outer);
  Alcotest.(check (float 0.0)) "the replay charged the clock" 0.5
    (Feam_util.Sim_clock.elapsed clock);
  Alcotest.(check bool) "no capture runs afterwards" false (Effects.capturing ());
  Metrics.incr "a.outside";
  let (), later = Effects.capture (fun () -> Metrics.incr "a.next") in
  Alcotest.(check (list string)) "a later capture starts empty"
    [ "count a.next+1" ] (List.map show later)

(* A hit redoes every counter the miss moved, whatever its name, except
   those that count real work. *)
let test_hit_replays_any_counter () =
  let site, _ = Fixtures.small_site () in
  let env = Site.base_env site in
  let memo = Feam_core.Pass_memo.create () in
  let lookup () =
    render
      (Feam_core.Pass_memo.find_or_discover memo site env ~env_type:`Target
         (fun () ->
           Metrics.incr ~labels:[ ("k", "v") ] "test.unlisted";
           Metrics.incr "test.cache.miss";
           Edc.discover ~env_type:`Target site env))
  in
  Metrics.reset ();
  let miss = lookup () in
  let hit = lookup () in
  Alcotest.(check int) "the second lookup hits" 1 (counter "edc.discover_memo.hit");
  Alcotest.(check string) "the hit's discovery" miss hit;
  Alcotest.(check int) "an unlisted counter replayed" 2
    (counter ~labels:[ ("k", "v") ] "test.unlisted");
  Alcotest.(check int) "a cache counter counts real work" 1
    (counter "test.cache.miss")

(* A hit inside a clock's scope charges that clock what its miss
   charged the clock in scope at the miss, and what a reference
   discovery charges; so does a hit after a miss outside every scope,
   whose tape still kept the charges. *)
let test_hit_in_scope_charges_miss () =
  let site, _ = Fixtures.small_site () in
  let env = Site.base_env site in
  let ctx = Eval_ctx.create () in
  let charged ctx =
    let clock = Feam_util.Sim_clock.create () in
    Effects.with_clock clock (fun () ->
        ignore (Edc.discover ~ctx ~env_type:`Target site env : Feam_core.Discovery.t));
    Feam_util.Sim_clock.elapsed clock
  in
  let miss = charged ctx in
  let hits = counter "edc.discover_memo.hit" in
  let hit = charged ctx in
  Alcotest.(check int) "the second lookup hits" 1
    (counter "edc.discover_memo.hit" - hits);
  let reference = charged Eval_ctx.reference in
  Alcotest.(check bool) "the reference charged its tools" true (reference > 0.0);
  Alcotest.(check (float 0.0)) "the miss charges what the reference did" reference miss;
  Alcotest.(check (float 0.0)) "the hit charges what the miss did" miss hit;
  let unscoped = Eval_ctx.create () in
  ignore (Edc.discover ~ctx:unscoped ~env_type:`Target site env : Feam_core.Discovery.t);
  Alcotest.(check (float 0.0)) "a hit after a miss outside every scope" reference
    (charged unscoped)

(* -- a miss that raises ---------------------------------------------------- *)

(* A source-phase computation that raises keeps no entry: the next
   lookup misses again, runs its computation and returns its value. *)
let test_raising_source_miss_keeps_no_entry () =
  let site, _ = Fixtures.small_site () in
  let memo = Feam_core.Pass_memo.create () in
  let lookup source =
    Feam_core.Pass_memo.find_or_source memo ~config:Feam_core.Config.default
      site (Site.base_env site) ~binary_path:"/home/user/app" ~image:None source
  in
  Metrics.reset ();
  Alcotest.check_raises "the first computation raises" (Failure "source")
    (fun () -> ignore (lookup (fun () -> failwith "source")));
  let ran = ref false in
  let second =
    lookup (fun () ->
        ran := true;
        Error "second")
  in
  Alcotest.(check int) "the second lookup misses too" 2
    (counter "phases.source_memo.miss");
  Alcotest.(check int) "and hits nothing" 0 (counter "phases.source_memo.hit");
  Alcotest.(check bool) "it runs its computation" true !ran;
  Alcotest.(check bool) "and returns its value" true
    (match second with Error "second" -> true | _ -> false)

(* A describe whose objdump run raises keeps no entry in the describe
   memo.  Here a trace sink fails as the objdump span closes, and its
   exception surfaces. *)
let test_raising_describe_miss_keeps_no_entry () =
  let site, installs = Fixtures.small_site () in
  let path, install = Fixtures.compiled_binary site installs in
  let env = Fixtures.session_env site install in
  let ctx = Eval_ctx.create () in
  let describe () =
    Fixtures.run_exn (Feam_core.Bdc.describe ~ctx site env ~path)
  in
  let fail_objdump = ref true in
  Feam_obs.Trace.configure
    {
      Feam_obs.Sink.on_span =
        (fun span ->
          if !fail_objdump && span.Feam_obs.Span.name = "bdc.objdump_describe"
          then failwith "sink");
      flush = ignore;
    };
  Fun.protect ~finally:Feam_obs.Trace.disable @@ fun () ->
  Metrics.reset ();
  Alcotest.check_raises "the first describe raises" (Failure "sink")
    (fun () -> ignore (describe () : Feam_core.Description.t));
  fail_objdump := false;
  let second = describe () in
  Alcotest.(check int) "the second describe misses too" 2
    (counter "bdc.describe_cache.miss");
  Alcotest.(check int) "and hits nothing" 0 (counter "bdc.describe_cache.hit");
  Alcotest.(check string) "it returns a reference description"
    (Json.render
       (Feam_core.Description.to_json
          (Fixtures.run_exn
             (Feam_core.Bdc.describe ~ctx:Eval_ctx.reference site env ~path))))
    (Json.render (Feam_core.Description.to_json second))

(* The describe memo's key has no recorder flag, so its tapes must hold
   no record, also when the miss ran with the recorder on. *)
let test_describe_tape_holds_no_record () =
  let site, installs = Fixtures.small_site () in
  let path, install = Fixtures.compiled_binary site installs in
  let ctx = Eval_ctx.create () in
  Metrics.reset ();
  Recorder.with_journal ~tool:"test" ~emit:ignore @@ fun () ->
  ignore
    (Fixtures.run_exn
       (Feam_core.Bdc.describe ~ctx site (Fixtures.session_env site install) ~path)
      : Feam_core.Description.t);
  Alcotest.(check bool) "the describe journaled" true
    (counter ~labels:[ ("type", "evidence") ] "flightrec.records" > 0);
  let tapes =
    match ctx.Eval_ctx.describe with
    | Some memo -> Hashtbl.fold (fun _ tape acc -> tape :: acc) memo []
    | None -> []
  in
  Alcotest.(check int) "one entry" 1 (List.length tapes);
  List.iter
    (fun (tape : _ Feam_core.Pass_memo.tape) ->
      let has p = List.exists p tape.effects in
      Alcotest.(check bool) "the tape holds the objdump charges" true
        (has (function Effects.Charge _ -> true | _ -> false));
      Alcotest.(check bool) "the tape holds no record" false
        (has (function Effects.Record _ -> true | _ -> false)))
    tapes

(* -- the describe memo's key ---------------------------------------------- *)

(* Describe [path] at each site in turn, with [install]'s session,
   under [ctx] and under the reference: each description, its charges
   and its journal must be the reference's at that site.  Returns the
   describe memo's hits. *)
let describe_each ctx ~install ~path sites =
  let describe ctx site =
    let clock = Feam_util.Sim_clock.create () in
    let d, journal =
      Test_flightrec.with_recorder @@ fun () ->
      Fixtures.run_exn
        ( Effects.with_clock clock @@ fun () ->
          Feam_core.Bdc.describe ~ctx site (Fixtures.session_env site install)
            ~path )
    in
    ( Json.render (Feam_core.Description.to_json d),
      Feam_util.Sim_clock.elapsed clock,
      journal )
  in
  let hits = counter "bdc.describe_cache.hit" in
  List.iter
    (fun site ->
      let d, clock, journal = describe ctx site in
      let d', clock', journal' = describe Eval_ctx.reference site in
      let what = Site.name site in
      Alcotest.(check string) (what ^ ": the description") d' d;
      Alcotest.(check (float 0.0)) (what ^ ": the charges") clock' clock;
      Alcotest.(check string) (what ^ ": the journal") journal' journal)
    sites;
  counter "bdc.describe_cache.hit" - hits

(* A site named [name] with [tools], holding [full]'s image at [path]. *)
let holding ~full ~path name tools =
  let site, _ = Fixtures.small_site ~name ~tools () in
  (match Vfs.resolve_image (Site.vfs full) path with
  | Some (_, image) -> Vfs.add_image (Site.vfs site) path image
  | None -> Alcotest.fail "the compiled binary has no image");
  site

(* One image at two sites: one with every tool, one without objdump,
   whose description takes the file/ldd fallback.  In one describe
   memo, each description and its charges must equal a reference
   describe at its own site: an entry made at the first site must not
   serve the second. *)
let test_describe_memo_keys_site () =
  let full, installs = Fixtures.small_site ~name:"full" () in
  let path, install = Fixtures.compiled_binary full installs in
  let no_objdump =
    holding ~full ~path "no-objdump" { Tools.full with Tools.objdump = false }
  in
  Alcotest.(check int) "the first site's second describe hits" 1
    (describe_each (Eval_ctx.create ()) ~install ~path [ full; no_objdump; full ])

(* The key is what the objdump path reads: the objdump and readelf
   flags and the image.  A site of another name whose ldd and locate
   differ describes the image from the entry its home made; a site
   without readelf, whose description has no build provenance, does
   not. *)
let test_describe_memo_keys_tools () =
  let full, installs = Fixtures.small_site ~name:"home" () in
  let path, install = Fixtures.compiled_binary full installs in
  let other_tools =
    holding ~full ~path "elsewhere"
      { Tools.full with Tools.ldd = false; Tools.locate = false }
  in
  let no_readelf =
    holding ~full ~path "no-readelf" { Tools.full with Tools.readelf = false }
  in
  let ctx = Eval_ctx.create () in
  Alcotest.(check int) "a site sharing objdump and readelf hits" 1
    (describe_each ctx ~install ~path [ full; other_tools ]);
  let misses = counter "bdc.describe_cache.miss" in
  Alcotest.(check int) "a site without readelf does not hit" 0
    (describe_each ctx ~install ~path [ no_readelf ]);
  Alcotest.(check int) "it misses" 1 (counter "bdc.describe_cache.miss" - misses)

let suite =
  ( "discover memo",
    [
      Alcotest.test_case "key: env type, env, journaling, site state" `Quick
        test_key;
      Alcotest.test_case "a hit replays records, counters, charges" `Quick
        test_hit_replays;
      Alcotest.test_case "a scoped write discovery reads runs live" `Quick
        test_guard;
      Alcotest.test_case "counter and journal captures nest" `Quick
        test_captures_nest;
      Alcotest.test_case "a hit replays a counter no list names" `Quick
        test_hit_replays_any_counter;
      Alcotest.test_case "a hit in a scope charges what its miss did" `Quick
        test_hit_in_scope_charges_miss;
      Alcotest.test_case "a source miss that raises keeps no entry" `Quick
        test_raising_source_miss_keeps_no_entry;
      Alcotest.test_case "a describe miss that raises keeps no entry" `Quick
        test_raising_describe_miss_keeps_no_entry;
      Alcotest.test_case "a describe tape holds no record" `Quick
        test_describe_tape_holds_no_record;
      Alcotest.test_case "the describe memo keys on the site" `Quick
        test_describe_memo_keys_site;
      Alcotest.test_case "the describe memo keys on objdump and readelf"
        `Quick test_describe_memo_keys_tools;
    ] )
