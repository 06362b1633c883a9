(* The pass memo's discovery table (DESIGN §17).  test_reference.ml
   checks it end to end, against a pass with no cache.  The key tests
   here pin what must miss and what must hit; the replay test pins what
   a hit must redo; the guard test pins that a scoped write discovery
   reads is never served stale.  Also here: nested counter and journal
   captures, which a discovery missed inside a source-phase miss needs,
   and the describe memo's site in its key. *)

open Feam_sysmodel
module Edc = Feam_core.Edc
module Eval_ctx = Feam_core.Eval_ctx
module Metrics = Feam_obs.Metrics
module Recorder = Feam_flightrec.Recorder
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
  Recorder.configure ~tool:"test" ~emit:ignore ();
  let journaled = missed ctx site in
  Recorder.disable ();
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
  let journal = ref "" in
  Recorder.configure ~tool:"test" ~emit:(( := ) journal) ();
  Fun.protect ~finally:Recorder.disable @@ fun () ->
  let clock = Feam_util.Sim_clock.create () in
  let labels = [ ("env", "target") ] in
  let before = counter ~labels "edc.discoveries" in
  let d = discover ~clock in
  Recorder.flush ();
  ( render d,
    Feam_util.Sim_clock.elapsed clock,
    counter ~labels "edc.discoveries" - before,
    !journal )

let test_hit_replays () =
  let site, _ = Fixtures.small_site () in
  let env = Site.base_env site in
  let discover ctx ~clock = Edc.discover ~clock ~ctx ~env_type:`Target site env in
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

(* -- nested captures ------------------------------------------------------ *)

let test_captures_nest () =
  Metrics.reset ();
  Recorder.configure ~tool:"test" ~emit:ignore ();
  Fun.protect ~finally:Recorder.disable @@ fun () ->
  let names tape = List.map (fun (name, _, by) -> Printf.sprintf "%s+%d" name by) tape in
  let record kind = Recorder.record kind in
  let (((inner_m, inner_r), outer_r), outer_m) =
    Metrics.capture ~prefixes:[ "a."; "b." ] @@ fun () ->
    Recorder.capture @@ fun () ->
    Metrics.incr "a.before";
    record "before";
    let (((), inner_r), inner_m) =
      Metrics.capture ~prefixes:[ "b." ] @@ fun () ->
      Recorder.capture @@ fun () ->
      Metrics.incr "a.inner";
      Metrics.incr ~by:2 "b.inner";
      record "inner"
    in
    (* a raising inner capture: what it did before raising stays with
       the outer one, and the outer keeps capturing *)
    (try
       ignore
         (Metrics.capture ~prefixes:[ "b." ] (fun () ->
              Recorder.capture (fun () ->
                  Metrics.incr "b.raised";
                  record "raised";
                  failwith "inner")))
     with Failure _ -> ());
    Metrics.replay [ ("b.replayed", [], 1) ];
    Metrics.incr "a.after";
    record "after";
    (inner_m, inner_r)
  in
  let journal tape =
    let out = ref "" in
    Recorder.configure ~tool:"test" ~emit:(( := ) out) ();
    Recorder.replay tape;
    Recorder.flush ();
    List.filter_map
      (fun line ->
        List.find_opt
          (fun k -> Str_split.contains ~sub:(Printf.sprintf {|"type":"%s"|} k) line)
          [ "before"; "inner"; "raised"; "after" ])
      (String.split_on_char '\n' !out)
  in
  Alcotest.(check (list string)) "the inner capture keeps its prefixes"
    [ "b.inner+2" ] (names inner_m);
  Alcotest.(check (list string)) "the outer capture sees every match, in order"
    [ "a.before+1"; "a.inner+1"; "b.inner+2"; "b.raised+1"; "b.replayed+1"; "a.after+1" ]
    (names outer_m);
  Alcotest.(check (list string)) "the inner journal capture" [ "inner" ]
    (journal inner_r);
  Alcotest.(check (list string)) "the outer journal capture"
    [ "before"; "inner"; "raised"; "after" ] (journal outer_r);
  Metrics.incr "a.outside";
  let ((), tape) = Metrics.capture ~prefixes:[ "a." ] (fun () -> Metrics.incr "a.next") in
  Alcotest.(check (list string)) "a later capture starts empty" [ "a.next+1" ] (names tape)

(* -- the describe memo's key ---------------------------------------------- *)

(* One image at two sites: one with every tool, one without objdump,
   whose description takes the file/ldd fallback.  In one describe
   memo, each description and its charges must equal a reference
   describe at its own site: an entry made at the first site must not
   serve the second. *)
let test_describe_memo_keys_site () =
  let full, installs = Fixtures.small_site ~name:"full" () in
  let path, install = Fixtures.compiled_binary full installs in
  let no_objdump, _ =
    Fixtures.small_site ~name:"no-objdump"
      ~tools:{ Tools.full with Tools.objdump = false } ()
  in
  (match Vfs.resolve_image (Site.vfs full) path with
  | Some (_, image) -> Vfs.add_image (Site.vfs no_objdump) path image
  | None -> Alcotest.fail "the compiled binary has no image");
  let describe ctx site =
    let journal = ref "" in
    Recorder.configure ~tool:"test" ~emit:(( := ) journal) ();
    Fun.protect ~finally:Recorder.disable @@ fun () ->
    let clock = Feam_util.Sim_clock.create () in
    let d =
      Fixtures.run_exn
        (Feam_core.Bdc.describe ~clock ~ctx site
           (Fixtures.session_env site install) ~path)
    in
    Recorder.flush ();
    ( Json.render (Feam_core.Description.to_json d),
      Feam_util.Sim_clock.elapsed clock,
      !journal )
  in
  let ctx = Eval_ctx.create () in
  let hits = counter "bdc.describe_cache.hit" in
  List.iter
    (fun site ->
      let d, clock, journal = describe ctx site in
      let d', clock', journal' = describe Eval_ctx.reference site in
      let what = Site.name site in
      Alcotest.(check string) (what ^ ": the description") d' d;
      Alcotest.(check (float 0.0)) (what ^ ": the charges") clock' clock;
      Alcotest.(check string) (what ^ ": the journal") journal' journal)
    [ full; no_objdump; full ];
  Alcotest.(check int) "the first site's second describe hits" 1
    (counter "bdc.describe_cache.hit" - hits)

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
      Alcotest.test_case "the describe memo keys on the site" `Quick
        test_describe_memo_keys_site;
    ] )
