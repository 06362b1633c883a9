(* The resident fleet engine: the daemon's state and request
   semantics, transport-free so tests drive it directly.

   One world — sites, compiled test binaries, the migration matrix's
   verdict table — stays resident across requests, together with an
   evidence store ([Feam_core.Evidence.Store]) holding every owner's
   current atoms.  `predict` is a table lookup.  `update-evidence`
   recaptures the touched site and the binaries homed there into the
   store, which diffs them against the resident atoms
   ([Evidence.diff]); the changes go through the reach rule
   ([Invalidate.plan]), the reached cells through the re-evaluation
   step ([Driftrun.reevaluate]), and [Invalidate.merge] carries every
   untouched verdict forward — the drift observatory's path between
   epochs, here applied between requests.  Registrations evaluate only
   the matrix pairs the new owner creates.

   Every response is byte-deterministic for a given store state: no
   timestamps, no table-iteration order, no wall-clock anywhere in a
   response body (the query-latency histogram is metrics-only). *)

module Json = Feam_util.Json
module Evidence = Feam_core.Evidence
module Site = Feam_sysmodel.Site
module Vfs = Feam_sysmodel.Vfs
module Snapshot = Feam_drift.Snapshot
module Invalidate = Feam_drift.Invalidate
module Metrics = Feam_obs.Metrics
module Driftrun = Feam_evalharness.Driftrun
module Sites = Feam_evalharness.Sites
module Testset = Feam_evalharness.Testset
module Params = Feam_evalharness.Params
module Benchmark = Feam_suites.Benchmark

type t = {
  params : Params.t;
  seed : int;
  clock : Feam_obs.Clock.t;
  ctx : Feam_core.Eval_ctx.t;
      (* the engine's evaluation context: its describe memo stays warm
         for the engine's lifetime, each pass gets a fresh stack memo *)
  store : Evidence.Store.t;
  index : (string * string, Snapshot.cell) Hashtbl.t;
  mutable sites : Site.t list;
  mutable binaries : Testset.binary list;
  mutable cells : Snapshot.cell list;  (* matrix enumeration order *)
  mutable epoch : int;  (* bumped by every accepted mutation *)
  mutable requests : int;
  mutable reevaluated : int;  (* incremental evaluations since start *)
}

(* -- evidence capture into the store ----------------------------------- *)

let store_site t site =
  let s = Driftrun.capture_site site in
  Evidence.Store.replace t.store
    (Evidence.Site_owner s.Snapshot.ss_name)
    (Snapshot.site_atoms s)

let store_binary t (binary : Testset.binary) =
  let b = Driftrun.capture_binary ~ctx:t.ctx binary in
  Evidence.Store.replace t.store
    (Evidence.Binary_owner b.Snapshot.bs_id)
    (Snapshot.binary_atoms b)

(* -- bookkeeping ------------------------------------------------------- *)

let reindex t =
  Hashtbl.reset t.index;
  List.iter
    (fun (c : Snapshot.cell) ->
      Hashtbl.replace t.index (c.Snapshot.cl_binary, c.Snapshot.cl_target) c)
    t.cells;
  Metrics.set_gauge "serve.resident_cells"
    (float_of_int (List.length t.cells))

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
  let ctx = Feam_core.Eval_ctx.create () in
  let sites, binaries = Driftrun.build_world params specs benchmarks [] in
  let cells = Driftrun.predict_all ~ctx sites binaries in
  let t =
    {
      params;
      seed;
      clock;
      ctx;
      store = Evidence.Store.create ();
      index = Hashtbl.create 1024;
      sites;
      binaries;
      cells;
      epoch = 0;
      requests = 0;
      reevaluated = 0;
    }
  in
  List.iter (fun site -> ignore (store_site t site)) sites;
  List.iter (fun b -> ignore (store_binary t b)) binaries;
  reindex t;
  (* Register the exported counters at zero so the Prometheus expo
     lists them before the first request arrives. *)
  Metrics.incr "serve.requests_total" ~by:0;
  Metrics.incr "serve.cells_reevaluated_total" ~by:0;
  t

let close _t = ()

(* A fresh stack memo for one prediction pass over the current world. *)
let pass t = Feam_core.Eval_ctx.next_pass t.ctx

let resident_cells t = List.length t.cells

let sites t = t.sites

let epoch t = t.epoch

(* -- incremental re-evaluation ----------------------------------------- *)

(* Extend the matrix after a registration: evaluate the pairs the new
   owners created, keep the resident table in enumeration order.  The
   few fresh cells run without a stack memo. *)
let extend_matrix t =
  let pairs = Driftrun.all_cells t.sites t.binaries in
  let fresh =
    List.filter
      (fun ((b : Testset.binary), target) ->
        not (Hashtbl.mem t.index (b.Testset.id, Site.name target)))
      pairs
  in
  List.iter
    (fun (b, target) ->
      Hashtbl.replace t.index (b.Testset.id, Site.name target)
        (Driftrun.predict_cell ~ctx:{ t.ctx with stacks = None } b target))
    fresh;
  t.cells <-
    List.map
      (fun ((b : Testset.binary), target) ->
        Hashtbl.find t.index (b.Testset.id, Site.name target))
      pairs;
  reindex t;
  count_reevaluated t (List.length fresh);
  List.length fresh

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

let find_site t name = List.find_opt (fun s -> Site.name s = name) t.sites

let find_binary t id =
  List.find_opt (fun (b : Testset.binary) -> b.Testset.id = id) t.binaries

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
      List.iter
        (Vfs.remove (Site.vfs site))
        (Vfs.find_by_basename (Site.vfs site) (fun b -> b = name)));
    (* A home-site change surfaces through its binaries' bundles, so
       recapture them along with the site itself. *)
    let changes =
      store_site t site
      @ List.concat_map
          (fun (b : Testset.binary) ->
            if Site.name b.Testset.home = site_name then store_binary t b
            else [])
          t.binaries
    in
    let plan =
      Invalidate.plan ~epoch_a:t.epoch ~epoch_b:(t.epoch + 1) t.cells changes
    in
    (* An update that changes no atom is not a mutation: the epoch,
       the table and the counters stay as they were. *)
    let flips =
      if changes = [] then []
      else begin
        let reevaluated =
          Driftrun.reevaluate ~ctx:(pass t) t.sites t.binaries
            plan.Invalidate.pl_affected
        in
        let before = t.cells in
        t.cells <- Invalidate.merge ~base:before ~reevaluated;
        reindex t;
        count_reevaluated t (List.length reevaluated);
        t.epoch <- t.epoch + 1;
        Invalidate.flips ~before ~after:t.cells
      end
    in
    ok "update-evidence"
      [
        ("site", Json.Str site_name);
        ("action", Json.Str (Protocol.action_to_string action));
        ("changed_atoms", Json.Int (List.length changes));
        ("cells_reevaluated", Json.Int (List.length plan.Invalidate.pl_affected));
        ("cells_total", Json.Int (List.length t.cells));
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
      let site =
        match Sites.build_specs t.params [ spec ] with
        | [ s ] -> s
        | _ -> assert false
      in
      t.sites <- t.sites @ [ site ];
      ignore (store_site t site);
      let evaluated = extend_matrix t in
      t.epoch <- t.epoch + 1;
      ok "register-site"
        [
          ("site", Json.Str name);
          ("cells_evaluated", Json.Int evaluated);
          ("cells_total", Json.Int (List.length t.cells));
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
        t.binaries <- t.binaries @ fresh;
        List.iter (fun b -> ignore (store_binary t b)) fresh;
        let evaluated = extend_matrix t in
        t.epoch <- t.epoch + 1;
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
            ("cells_total", Json.Int (List.length t.cells));
            ("epoch", Json.Int t.epoch);
          ]
      end)

(* -- snapshot / crosscheck / stats ------------------------------------- *)

let snapshot t =
  Driftrun.snapshot_of_world ~ctx:t.ctx ~epoch:t.epoch ~seed:t.seed
    ~label:"serve" t.sites t.binaries ~cells:t.cells

let snapshot_fleet t ~out ~write_file =
  let snap = snapshot t in
  (match out with
  | Some path -> write_file path (Snapshot.to_jsonl snap)
  | None -> ());
  ok "snapshot"
    [
      ("epoch", Json.Int t.epoch);
      ("hash", Json.Str (Snapshot.hash snap));
      ("sites", Json.Int (List.length t.sites));
      ("binaries", Json.Int (List.length t.binaries));
      ("cells", Json.Int (List.length t.cells));
      ("ready", Json.Int (Snapshot.ready_cells snap));
      ("out", match out with Some p -> Json.Str p | None -> Json.Null);
    ]

(* The drift harness's byte-identity contract, live: a cold full
   prediction pass over the resident world must serialize identically
   to the incrementally maintained table. *)
let crosscheck_matches t =
  let full = Driftrun.predict_all ~ctx:(pass t) t.sites t.binaries in
  String.equal
    (Driftrun.cells_doc ~epoch:t.epoch ~seed:t.seed t.cells)
    (Driftrun.cells_doc ~epoch:t.epoch ~seed:t.seed full)

let crosscheck t =
  ok "crosscheck"
    [
      ("cells", Json.Int (List.length t.cells));
      ("matches", Json.Bool (crosscheck_matches t));
      ("epoch", Json.Int t.epoch);
    ]

let stats t =
  ok "stats"
    [
      ("epoch", Json.Int t.epoch);
      ("sites", Json.Int (List.length t.sites));
      ("binaries", Json.Int (List.length t.binaries));
      ("resident_cells", Json.Int (List.length t.cells));
      ("ready_cells", Json.Int (List.length (List.filter (fun (c : Snapshot.cell) -> c.Snapshot.cl_extended) t.cells)));
      ("resident_atoms", Json.Int (Evidence.Store.size t.store));
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
