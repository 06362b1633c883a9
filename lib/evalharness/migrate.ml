(* The migration experiment (paper §VI.B): every test binary is migrated
   to every other site that offers a matching MPI implementation — only
   there is successful execution possible, and only those migrations are
   reported.  For each migration we record:

   - the *basic* prediction: FEAM's required target phase only;
   - the *extended* prediction: source phase at the guaranteed site plus
     target phase with the bundle (enables probes and resolution);
   - actual execution *before resolution*: the user selects a matching
     stack and runs, no library fixes (Table IV "before");
   - actual execution *after resolution*: FEAM's configuration applied
     (Table IV "after").

   Prediction accuracy (Table III) scores basic against the
   before-resolution run and extended against the after-resolution run,
   since those are the executions each mode configures. *)

open Feam_sysmodel
open Feam_mpi
open Feam_suites

type migration = {
  binary : Testset.binary;
  target_name : string;
  basic_ready : bool;
  basic_reasons : string list;
  extended_ready : bool;
  extended_reasons : string list;
  staged_copies : string list; (* libraries FEAM resolved from the bundle *)
  actual_before : Feam_dynlinker.Exec.outcome;
  actual_after : Feam_dynlinker.Exec.outcome;
}

let success = function
  | Feam_dynlinker.Exec.Success -> true
  | Feam_dynlinker.Exec.Failure _ -> false

let basic_correct m = m.basic_ready = success m.actual_before
let extended_correct m = m.extended_ready = success m.actual_after

(* The stack a knowledgeable user selects by hand: matching MPI
   implementation, preferring the build compiler family (paper §VI:
   "choosing an execution site only by matching the MPI implementation"). *)
let user_stack_choice binary target =
  let build_stack = Stack_install.stack binary.Testset.install in
  let impl = Stack.impl build_stack in
  let family = Compiler.family (Stack.compiler build_stack) in
  let matching =
    Site.stack_installs target
    |> List.filter (fun i -> Impl.equal (Stack.impl (Stack_install.stack i)) impl)
  in
  let same_family =
    List.filter
      (fun i ->
        Compiler.family_equal
          (Compiler.family (Stack.compiler (Stack_install.stack i)))
          family)
      matching
  in
  match (same_family, matching) with
  | i :: _, _ -> Some i
  | [], i :: _ -> Some i
  | [], [] -> None

let has_matching_impl binary target = user_stack_choice binary target <> None

(* The matrix's cell criterion: every *other* site with a matching MPI
   implementation — only there is successful execution possible, and
   only those migrations are reported. *)
let targets sites binary =
  List.filter
    (fun target ->
      Site.name target <> Site.name binary.Testset.home
      && has_matching_impl binary target)
    sites

let cells sites binaries =
  List.concat_map
    (fun binary -> List.map (fun target -> (binary, target)) (targets sites binary))
    binaries

let migrated_dir = "/home/user/migrated"

(* Stage the binary at the target, as the user's scp would, and run the
   cell body on the staged path, all in one scope of the target's file
   system: whatever the cell wrote is undone afterwards, also when the
   body raises, so a cell leaves the target as it found it. *)
let with_staged binary target f =
  Vfs.scoped (Site.vfs target) @@ fun () ->
  let path = migrated_dir ^ "/" ^ Vfs.basename binary.Testset.home_path in
  Vfs.add_image ~declared_size:binary.Testset.declared_size (Site.vfs target)
    path binary.Testset.image;
  f path

(* The source phase at the binary's home, under its build stack. *)
let source_bundle ?ctx binary =
  Feam_core.Phases.source_phase ?ctx Feam_core.Config.default
    binary.Testset.home
    (Modules_tool.load_stack
       (Site.base_env binary.Testset.home)
       binary.Testset.install)
    ~binary_path:binary.Testset.home_path

type verdict = {
  ready : bool;
  reasons : string list;
  staged : string list;
  stack : string option;
}

let failed e = { ready = false; reasons = [ e ]; staged = []; stack = None }

(* Basic prediction: target phase only, no bundle.  [stack] is the
   functioning stack FEAM found.  The phase runs in its own scope, so
   the steps that follow find the target as it was before. *)
let basic_prediction ?ctx target staged_path =
  let open Feam_core in
  let basic =
    Vfs.scoped (Site.vfs target) @@ fun () ->
    Phases.target_phase ?ctx Config.default target
      (Site.base_env target) ~binary_path:staged_path ()
  in
  match basic with
  | Ok report ->
    let p = Report.prediction report in
    let stack =
      match p.Predict.determinants.Predict.stack with
      | Some s -> s.Predict.functioning
      | None -> None
    in
    { ready = Predict.is_ready p; reasons = Predict.reasons p; staged = []; stack }
  | Error e -> failed e

(* Extended prediction: source phase at home, bundle to target.
   [bundle_filter] transforms the bundle before the target phase.
   [stack] is the plan's chosen stack; [staged] the libraries resolved
   from the bundle. *)
let extended_prediction ?ctx ?(bundle_filter = fun b -> b) binary
    target staged_path =
  let open Feam_core in
  let extended =
    match source_bundle ?ctx binary with
    | Error e -> Error e
    | Ok bundle ->
      Phases.target_phase ?ctx Config.default target
        (Site.base_env target) ~bundle:(bundle_filter bundle)
        ~binary_path:staged_path ()
  in
  match extended with
  | Ok report -> (
    let p = Report.prediction report in
    match p.Predict.verdict with
    | Predict.Ready plan ->
      { ready = true; reasons = [];
        staged = List.map fst plan.Predict.staged_copies;
        stack = plan.Predict.chosen_stack_slug }
    | Predict.Not_ready reasons ->
      (* Copies staged before the verdict remain available to the
         after-resolution run. *)
      let staged =
        match p.Predict.determinants.Predict.libs with
        | Some l -> l.Predict.resolved_by_copies
        | None -> []
      in
      { ready = false; reasons; staged; stack = None })
  | Error e -> failed e

(* Ground truth for one prediction: run on the stack it chose (falling
   back to the user's own matching choice when it found none), with the
   staged copies on LD_LIBRARY_PATH when it resolved any.  The link
   phase resolves through the pass's closure memo. *)
let run_binary ?ctx (params : Params.t) binary target staged_path verdict =
  let install =
    match verdict.stack with
    | Some slug -> Site.find_stack_install target ~slug
    | None -> user_stack_choice binary target
  in
  match install with
  | None -> Feam_dynlinker.Exec.Failure Feam_dynlinker.Exec.No_mpi_stack
  | Some install ->
    let env = Modules_tool.load_stack (Site.base_env target) install in
    let env =
      if verdict.staged = [] then env
      else
        Env.prepend_path env "LD_LIBRARY_PATH"
          Feam_core.Config.default.Feam_core.Config.staging_dir
    in
    Feam_obs.Ledger.with_stage "exec.ground_truth" @@ fun () ->
    Feam_dynlinker.Exec.run
      ?closures:(Feam_core.Eval_ctx.closures ctx)
      ~params:params.Params.exec ~attempts:params.Params.attempts target env
      ~binary_path:staged_path
      ~mode:(Feam_dynlinker.Exec.Mpi 4)

(* One migration: stage, basic prediction, the before-resolution run,
   extended prediction, the after-resolution run.  [bundle_filter] is
   the ablation study's hook to strip probes or library copies. *)
let migrate ?ctx ?bundle_filter (params : Params.t) binary target =
  (* One matrix cell in the cost ledger, named binary->site like the
     evaluation tables; the Prof timer sees the same work per target. *)
  Feam_obs.Ledger.with_cell
    (binary.Testset.id ^ "->" ^ Site.name target)
  @@ fun () ->
  Feam_obs.Prof.with_timer
    ~labels:[ ("target", Site.name target) ]
    "evalharness.migrate"
  @@ fun () ->
  with_staged binary target @@ fun staged_path ->
  let basic = basic_prediction ?ctx target staged_path in
  (* Before resolution: the stack the basic prediction selected, no
     library fixes. *)
  let actual_before = run_binary ?ctx params binary target staged_path basic in
  let extended =
    extended_prediction ?ctx ?bundle_filter binary target staged_path
  in
  (* After resolution: FEAM's configuration applied. *)
  let actual_after =
    run_binary ?ctx params binary target staged_path extended
  in
  {
    binary;
    target_name = Site.name target;
    basic_ready = basic.ready;
    basic_reasons = basic.reasons;
    extended_ready = extended.ready;
    extended_reasons = extended.reasons;
    staged_copies = extended.staged;
    actual_before;
    actual_after;
  }

(* All migrations of the corpus, one per matrix cell, as one evaluation
   pass under one context (DESIGN §17).  Its describe memo parses the
   same library image re-described at the same site across cells once
   (bdc.describe_cache metrics).  Its pass memo runs each binary's
   source phase once (phases.source_memo metrics) and replays an
   MPI-stack determinant whose inputs an earlier cell already probed
   instead of probing again (tec.stack_memo metrics).  Its closure
   memo walks each dependency closure once while the directories it
   consulted stay unchanged (dynlinker.closure_memo metrics, DESIGN
   §21).  The memos are invisible in the results: the cells, the clock
   and the counters come out as a cell-by-cell run with no cache
   ([Eval_ctx.reference]) would. *)
let run_all ?bundle_filter params sites binaries =
  let ctx = Feam_core.Eval_ctx.create () in
  List.map
    (fun (binary, target) ->
      migrate ~ctx ?bundle_filter params binary target)
    (cells sites binaries)

let of_suite suite migrations =
  List.filter
    (fun m -> m.binary.Testset.benchmark.Benchmark.suite = suite)
    migrations
