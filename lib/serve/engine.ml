(* The resident fleet engine: the daemon's state and request
   semantics, transport-free so tests drive it directly.

   The engine keeps drift's resident world ([Driftrun.World]): sites,
   compiled test binaries, each owner's last capture and the migration
   matrix's verdict table.  `predict` is a table lookup.
   `update-evidence` changes the touched site, then runs drift's epoch
   step between requests: [World.recapture] captures that site and the
   binaries homed there and diffs them against the resident captures
   ([Evidence.diff]), and [World.step] takes the changes through the
   reach rule ([Invalidate.plan]), the reached cells through the
   re-evaluation step ([Driftrun.reevaluate]) and carries every
   untouched verdict forward ([Invalidate.merge]).  Registrations
   capture the new owner and evaluate only the matrix pairs it creates
   ([World.extend]); `snapshot` assembles the resident captures, and
   `crosscheck` compares that snapshot with a cold capture and pass
   ([Driftrun.crosscheck]).

   Every response is byte-deterministic for a given request sequence: no
   timestamps, no table-iteration order, no wall-clock anywhere in a
   response body (the query-latency histogram is metrics-only). *)

module Json = Feam_util.Json
module Site = Feam_sysmodel.Site
module Snapshot = Feam_drift.Snapshot
module Invalidate = Feam_drift.Invalidate
module Metrics = Feam_obs.Metrics
module Driftrun = Feam_evalharness.Driftrun
module World = Driftrun.World
module Sites = Feam_evalharness.Sites
module Testset = Feam_evalharness.Testset
module Params = Feam_evalharness.Params
module Benchmark = Feam_suites.Benchmark

type t = {
  params : Params.t;
  seed : int;
  clock : Feam_obs.Clock.t;
  world : Driftrun.World.t;
      (* its context stays warm for the engine's lifetime: a pass-memo
         entry serves whenever its site is in the state it was made in *)
  index : (string * string, Snapshot.cell) Hashtbl.t;
  mutable epoch : int;  (* bumped by every accepted mutation *)
  mutable requests : int;
  mutable reevaluated : int;  (* incremental evaluations since start *)
}

(* -- bookkeeping ------------------------------------------------------- *)

let cells t = World.cells t.world

let reindex t =
  Hashtbl.reset t.index;
  List.iter
    (fun (c : Snapshot.cell) ->
      Hashtbl.replace t.index (c.Snapshot.cl_binary, c.Snapshot.cl_target) c)
    (cells t);
  Metrics.set_gauge "serve.resident_cells"
    (float_of_int (List.length (cells t)))

let count_reevaluated t n =
  t.reevaluated <- t.reevaluated + n;
  Metrics.incr "serve.cells_reevaluated" ~by:n;
  Metrics.incr "serve.cells_reevaluated_total" ~by:n

(* -- construction ------------------------------------------------------ *)

let create ?specs ?benchmarks ?(clock = Feam_obs.Clock.fixed ()) ~seed () =
  let specs = Option.value specs ~default:(Driftrun.small_specs ()) in
  let benchmarks =
    Option.value benchmarks ~default:(Driftrun.small_benchmarks ())
  in
  let params = { Params.default with Params.seed } in
  let sites, binaries = Driftrun.build_world params specs benchmarks [] in
  let t =
    {
      params;
      seed;
      clock;
      world = World.create sites binaries;
      index = Hashtbl.create 1024;
      epoch = 0;
      requests = 0;
      reevaluated = 0;
    }
  in
  reindex t;
  (* Register the exported counters at zero so the Prometheus expo
     lists them before the first request arrives. *)
  Metrics.incr "serve.requests_total" ~by:0;
  Metrics.incr "serve.cells_reevaluated_total" ~by:0;
  t

let close _t = ()

let resident_cells t = List.length (cells t)

let sites t = World.sites t.world

let binaries t = World.binaries t.world

(* -- registration ------------------------------------------------------ *)

(* New owners join the world, which evaluates only the matrix pairs they
   create; a registration is a mutation. *)
let register t new_sites new_binaries =
  let fresh = World.extend t.world new_sites new_binaries in
  reindex t;
  count_reevaluated t fresh;
  t.epoch <- t.epoch + 1;
  fresh

(* -- response building ------------------------------------------------- *)

let strs l = Json.List (List.map (fun s -> Json.Str s) l)

let ok_fields verb fields = ("ok", Json.Bool true) :: ("verb", Json.Str verb) :: fields

let ok verb fields = Json.render (Json.Obj (ok_fields verb fields))

let err ?(fields = []) code detail =
  Json.render
    (Json.Obj
       (("ok", Json.Bool false)
        :: ("error", Json.Str code)
        :: ("detail", Json.Str detail)
        :: fields))

let find_site t name = List.find_opt (fun s -> Site.name s = name) (sites t)

let find_binary t id =
  List.find_opt (fun (b : Testset.binary) -> b.Testset.id = id) (binaries t)

(* One query's result as response fields — shared by predict and the
   per-entry objects of predict-batch. *)
let query_fields t (q : Protocol.query) =
  match Hashtbl.find_opt t.index (q.Protocol.q_binary, q.Protocol.q_target) with
  | Some cell ->
    Ok
      [
        ("binary", Json.Str cell.Snapshot.cl_binary);
        ("target", Json.Str cell.Snapshot.cl_target);
        ("basic", Json.Bool cell.Snapshot.cl_basic);
        ("basic_reasons", strs cell.Snapshot.cl_basic_reasons);
        ("extended", Json.Bool cell.Snapshot.cl_extended);
        ("extended_reasons", strs cell.Snapshot.cl_extended_reasons);
        ("staged", strs cell.Snapshot.cl_staged);
        ("epoch", Json.Int t.epoch);
      ]
  | None ->
    let ctx =
      [
        ("binary", Json.Str q.Protocol.q_binary);
        ("target", Json.Str q.Protocol.q_target);
      ]
    in
    Error
      (match (find_binary t q.Protocol.q_binary, find_site t q.Protocol.q_target) with
      | None, _ -> ("unknown-binary", "binary is not resident", ctx)
      | _, None -> ("unknown-target", "target site is not resident", ctx)
      | Some b, Some _ when Site.name b.Testset.home = q.Protocol.q_target ->
        ("no-cell", "binary is homed at the target site", ctx)
      | Some _, Some _ ->
        ("no-cell", "target has no matching MPI implementation", ctx))

let predict t q =
  match query_fields t q with
  | Ok fields -> ok "predict" fields
  | Error (code, detail, ctx) -> err code detail ~fields:ctx

let predict_batch t qs =
  let results =
    List.map
      (fun q ->
        match query_fields t q with
        | Ok fields -> Json.Obj (("ok", Json.Bool true) :: fields)
        | Error (code, detail, ctx) ->
          Json.Obj
            (("ok", Json.Bool false)
             :: ("error", Json.Str code)
             :: ("detail", Json.Str detail)
             :: ctx))
      qs
  in
  ok "predict-batch"
    [ ("count", Json.Int (List.length results)); ("results", Json.List results) ]

(* -- mutating verbs ---------------------------------------------------- *)

let flip_json (f : Invalidate.flip) =
  Json.Obj
    [
      ("cell", Json.Str (Invalidate.cell_id_key f.Invalidate.fp_cell));
      ("before", Json.Bool f.Invalidate.fp_before);
      ("after", Json.Bool f.Invalidate.fp_after);
    ]

let update_evidence t site_name action =
  match find_site t site_name with
  | None -> err "unknown-site" "site is not resident"
  | Some site ->
    (match action with
    | Protocol.Stale_ld_cache -> Site.set_ld_cache_current site false
    | Protocol.Fresh_ld_cache -> Site.set_ld_cache_current site true
    | Protocol.Remove_lib name ->
      ignore (Driftrun.remove_lib site name : _ list));
    let changes = World.recapture t.world site_name in
    let plan, flips =
      World.step t.world ~epoch_a:t.epoch ~epoch_b:(t.epoch + 1) changes
    in
    (* An update that changes no atom is not a mutation: the epoch,
       the table and the counters stay as they were. *)
    if changes <> [] then begin
      reindex t;
      count_reevaluated t (List.length plan.Invalidate.pl_affected);
      t.epoch <- t.epoch + 1
    end;
    ok "update-evidence"
      [
        ("site", Json.Str site_name);
        ("action", Json.Str (Protocol.action_to_string action));
        ("changed_atoms", Json.Int (List.length changes));
        ("cells_reevaluated", Json.Int (List.length plan.Invalidate.pl_affected));
        ("cells_total", Json.Int (resident_cells t));
        ("flips", Json.List (List.map flip_json flips));
        ("epoch", Json.Int t.epoch);
      ]

let register_site t name =
  if find_site t name <> None then err "site-resident" "site is already resident"
  else
    match
      List.find_opt (fun (sp : Sites.spec) -> sp.Sites.site_name = name) Sites.specs
    with
    | None -> err "unknown-site-spec" "no such spec in the site catalog"
    | Some spec ->
      (* The new site joins the resident sites' world: its builds take
         that world's next serials. *)
      let world =
        match sites t with
        | s :: _ -> Site.world s
        | [] -> Feam_sysmodel.Build_world.create ()
      in
      let site = Sites.build_site ~world t.params spec in
      let evaluated = register t [ site ] [] in
      ok "register-site"
        [
          ("site", Json.Str name);
          ("cells_evaluated", Json.Int evaluated);
          ("cells_total", Json.Int (resident_cells t));
          ("epoch", Json.Int t.epoch);
        ]

let all_benchmarks () = Feam_suites.Npb.all @ Feam_suites.Specmpi.all

let register_binary t ~home ~benchmark =
  match find_site t home with
  | None -> err "unknown-site" "home site is not resident"
  | Some site -> (
    match
      List.find_opt
        (fun (b : Benchmark.t) -> b.Benchmark.bench_name = benchmark)
        (all_benchmarks ())
    with
    | None -> err "unknown-benchmark" "no such benchmark in the corpus"
    | Some bench ->
      let built = Testset.build t.params [ site ] [ bench ] in
      let fresh =
        List.filter
          (fun (b : Testset.binary) -> find_binary t b.Testset.id = None)
          built
      in
      if built = [] then
        err "nothing-built" "benchmark compiled on no stack at the home site"
      else if fresh = [] then
        err "binary-resident" "every built binary is already resident"
      else begin
        let evaluated = register t [] fresh in
        ok "register-binary"
          [
            ("home", Json.Str home);
            ("benchmark", Json.Str benchmark);
            ( "added",
              strs
                (List.sort String.compare
                   (List.map (fun (b : Testset.binary) -> b.Testset.id) fresh))
            );
            ("cells_evaluated", Json.Int evaluated);
            ("cells_total", Json.Int (resident_cells t));
            ("epoch", Json.Int t.epoch);
          ]
      end)

(* -- snapshot / crosscheck / stats ------------------------------------- *)

let snapshot t = World.snapshot t.world ~epoch:t.epoch ~seed:t.seed ~label:"serve"

let snapshot_fleet t ~out ~write_file =
  let snap = snapshot t in
  (match out with
  | Some path -> write_file path (Snapshot.to_jsonl snap)
  | None -> ());
  ok "snapshot"
    [
      ("epoch", Json.Int t.epoch);
      ("hash", Json.Str (Snapshot.hash snap));
      ("sites", Json.Int (List.length (sites t)));
      ("binaries", Json.Int (List.length (binaries t)));
      ("cells", Json.Int (resident_cells t));
      ("ready", Json.Int (Snapshot.ready_cells snap));
      ("out", match out with Some p -> Json.Str p | None -> Json.Null);
    ]

(* Drift's crosscheck, live: the resident snapshot (evidence and the
   incrementally maintained table) must serialize identically to a cold
   capture and full prediction pass over the resident world, under a
   fresh context. *)
let crosscheck t =
  ok "crosscheck"
    [
      ("cells", Json.Int (resident_cells t));
      ( "matches",
        Json.Bool
          (Result.is_ok (Driftrun.crosscheck (snapshot t) (sites t) (binaries t)))
      );
      ("epoch", Json.Int t.epoch);
    ]

let stats t =
  let snap = snapshot t in
  ok "stats"
    [
      ("epoch", Json.Int t.epoch);
      ("sites", Json.Int (List.length (sites t)));
      ("binaries", Json.Int (List.length (binaries t)));
      ("resident_cells", Json.Int (resident_cells t));
      ("ready_cells", Json.Int (Snapshot.ready_cells snap));
      ( "resident_atoms",
        Json.Int
          (List.fold_left
             (fun n (_, atoms) -> n + List.length atoms)
             0
             (Snapshot.evidence_atoms snap)) );
      ("requests", Json.Int t.requests);
      ("cells_reevaluated", Json.Int t.reevaluated);
    ]

(* -- dispatch ---------------------------------------------------------- *)

let default_write_file path doc =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc doc)

let dispatch t ~write_file (req : Protocol.request) =
  match req with
  | Protocol.Predict q -> predict t q
  | Protocol.Predict_batch qs -> predict_batch t qs
  | Protocol.Register_site name -> register_site t name
  | Protocol.Register_binary { rb_home; rb_benchmark } ->
    register_binary t ~home:rb_home ~benchmark:rb_benchmark
  | Protocol.Update_evidence { ue_site; ue_action } ->
    update_evidence t ue_site ue_action
  | Protocol.Snapshot_fleet { sf_out } ->
    snapshot_fleet t ~out:sf_out ~write_file
  | Protocol.Crosscheck -> crosscheck t
  | Protocol.Stats -> stats t
  | Protocol.Shutdown -> ok "shutdown" [ ("requests", Json.Int t.requests) ]

let handle ?(write_file = default_write_file) t req =
  t.requests <- t.requests + 1;
  Metrics.incr "serve.requests"
    ~labels:[ ("verb", Protocol.verb_of_request req) ];
  Metrics.incr "serve.requests_total";
  let t0 = t.clock () in
  let response = dispatch t ~write_file req in
  Metrics.observe "serve.query_ns"
    (Int64.to_float (Int64.sub (t.clock ()) t0));
  response
