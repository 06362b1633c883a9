(* The agreement harness.  One scenario flows through:

     source phase at home  -> bundle (shared BDC description)
     EDC at the target     -> discovery (shared environment pass)
     TEC (basic)           -> library-level determinants
     lint                  -> rule findings over bundle + target facts
     symcheck              -> ld.so binding over the live target closure
     oracle                -> ground-truth launch, fault-free params

   All four verdicts are normalized into the lattice; a predictor is
   unsound on the scenario when it was strictly ready and the oracle
   failed with a class the predictor claims to detect. *)

open Feam_util
open Feam_sysmodel
open Feam_evalharness

type run = {
  r_scenario : Scengen.t;
  r_tec : Verdict.t;
  r_lint : Verdict.t;
  r_sym : Verdict.t;
  r_oracle : Verdict.t;
  r_failure : Feam_dynlinker.Exec.failure option;
  r_unsound : Verdict.predictor list;
  r_findings : Feam_core.Diagnose.finding list;
}

let verdict_of r = function
  | Verdict.Tec -> r.r_tec
  | Verdict.Lint -> r.r_lint
  | Verdict.Symcheck -> r.r_sym
  | Verdict.Oracle -> r.r_oracle

let disagrees r =
  let bits =
    List.map (fun p -> Verdict.accepts (verdict_of r p)) Verdict.predictors
  in
  List.exists (fun b -> b <> List.hd bits) bits

(* Journal one scenario and its verdicts; no-op unless recording. *)
let record_run r =
  let sc = r.r_scenario in
  Feam_flightrec.Recorder.payload ~kind:"agree.scenario" (fun () ->
      Json.Obj
        [
          ("seed", Json.Int sc.Scengen.sc_seed);
          ("index", Json.Int sc.Scengen.sc_index);
          ("keep", Json.List (List.map (fun i -> Json.Int i) sc.Scengen.sc_keep));
          ( "drawn",
            Json.List
              (List.map
                 (fun p -> Json.Str (Scengen.perturbation_to_string p))
                 sc.Scengen.sc_all) );
          ( "applied",
            Json.List
              (List.map
                 (fun p -> Json.Str (Scengen.perturbation_to_string p))
                 (Scengen.applied sc)) );
          ( "program",
            Json.Str sc.Scengen.sc_program.Feam_toolchain.Compile.prog_name );
          ("mpi", Json.Bool sc.Scengen.sc_program.Feam_toolchain.Compile.uses_mpi);
        ]);
  List.iter
    (fun p ->
      let v = verdict_of r p in
      Feam_flightrec.Recorder.decision
        ~determinant:("agree." ^ Verdict.predictor_name p)
        ~verdict:(Verdict.level_to_string v.Verdict.v_level)
        (fun () ->
          [
            ("scenario", Json.Str (Scengen.id sc));
            ( "attribution",
              Json.List
                (List.map
                   (fun a -> Json.Str a.Verdict.at_source)
                   v.Verdict.v_attribution) );
          ]))
    Verdict.predictors

(* One scenario, in a scope of the target's file system: the staged
   binary and whatever the phases write there are undone afterwards. *)
let run_one ?ctx (sc : Scengen.t) =
  let open Scengen in
  Vfs.scoped (Site.vfs sc.sc_target) @@ fun () ->
  let home_env =
    match sc.sc_home_install with
    | Some install -> Modules_tool.load_stack (Site.base_env sc.sc_home) install
    | None -> Site.base_env sc.sc_home
  in
  (* Shared BDC pass: the source phase describes the binary once; its
     description feeds TEC, lint and the bundle alike. *)
  let bundle =
    match
      Feam_core.Phases.source_phase ?ctx Feam_core.Config.default sc.sc_home
        home_env ~binary_path:sc.sc_binary_path
    with
    | Ok b -> Scengen.bundle_filter sc b
    | Error e ->
      failwith (Printf.sprintf "agree %s: source phase failed: %s" (id sc) e)
  in
  (* The binary migrates: staged at the target, judged there, under the
     handle its home file keeps, so it parses once for every reader. *)
  let image =
    match Vfs.resolve_image (Site.vfs sc.sc_home) sc.sc_binary_path with
    | Some (_, image) -> image
    | None -> failwith (Printf.sprintf "agree %s: binary vanished" (id sc))
  in
  let staged =
    Migrate.migrated_dir ^ "/" ^ sc.sc_program.Feam_toolchain.Compile.prog_name
  in
  Vfs.add_image
    ~declared_size:(Feam_toolchain.Compile.declared_size sc.sc_program)
    (Site.vfs sc.sc_target) staged image;
  let env =
    let base =
      match sc.sc_target_install with
      | Some install ->
        Modules_tool.load_stack (Site.base_env sc.sc_target) install
      | None -> Site.base_env sc.sc_target
    in
    List.fold_left
      (fun e dir -> Env.prepend_path e "LD_LIBRARY_PATH" dir)
      base sc.sc_extra_ld_dirs
  in
  (* Shared EDC pass. *)
  let discovery =
    Feam_core.Edc.discover ~env_type:`Target sc.sc_target env
  in
  let tec =
    Feam_core.Tec.evaluate ?ctx sc.sc_target env
      {
        Feam_core.Tec.config =
          { Feam_core.Config.default with
            Feam_core.Config.binary_path = Some staged };
        description = bundle.Feam_core.Bundle.binary_description;
        binary_path = Some staged;
        bundle = None;
        discovery;
      }
  in
  let ctx =
    Feam_analysis.Context.of_bundle
      ~target:(Feam_analysis.Context.target_of_site sc.sc_target) bundle
  in
  let findings = Feam_analysis.Engine.run ctx in
  let sym =
    match Feam_elf.Reader.parse_image image with
    | Error _ ->
      (* an unparsable binary binds nothing; symcheck has no scope *)
      Feam_symcheck.Symcheck.run []
    | Ok parsed ->
      Feam_symcheck.Symcheck.of_resolve
        (Feam_dynlinker.Resolve.run ~path:staged sc.sc_target env
           (Feam_elf.Reader.spec parsed))
  in
  let mode =
    if sc.sc_program.Feam_toolchain.Compile.uses_mpi then
      Feam_dynlinker.Exec.Mpi 4
    else Feam_dynlinker.Exec.Serial
  in
  let outcome =
    Feam_dynlinker.Exec.run ~params:Fault_model.none sc.sc_target env
      ~binary_path:staged ~mode
  in
  let r_failure =
    match outcome with
    | Feam_dynlinker.Exec.Success -> None
    | Feam_dynlinker.Exec.Failure f -> Some f
  in
  let r_tec = Verdict.of_predict tec in
  let r_lint = Verdict.of_findings findings in
  let r_sym = Verdict.of_symcheck sym in
  let r_oracle = Verdict.of_outcome outcome in
  let r =
    {
      r_scenario = sc;
      r_tec;
      r_lint;
      r_sym;
      r_oracle;
      r_failure;
      r_unsound = [];
      r_findings = findings;
    }
  in
  let r_unsound =
    match r_failure with
    | None -> []
    | Some f ->
      List.filter
        (fun p -> Verdict.strictly_ready (verdict_of r p) && Verdict.claims p f)
        [ Verdict.Tec; Verdict.Lint; Verdict.Symcheck ]
  in
  let r = { r with r_unsound } in
  record_run r;
  r

(* One describe memo and one template table per corpus, without a pass
   memo or a closure memo: both key on values a fresh world cannot
   disguise (the image's content, the site's tool flags, everything a
   compile reads), but every scenario builds a fresh world under the
   same site names, which the pass memo's keys cannot tell apart.  The
   closure memo could (a fresh file system under a known name drops
   that name's entries), but in a fresh world most walks are first
   walks: a 500-scenario corpus hit 626 of 1,528 lookups and ran slower
   with the memo than without it.  Both caches are invisible in the
   report and the journal: they read as under
   {!Feam_core.Eval_ctx.reference}. *)
let run_corpus ~seed ~count () =
  let ctx =
    {
      Feam_core.Eval_ctx.reference with
      describe = Some (Feam_core.Eval_ctx.create_describe_memo ());
      templates = Some (Feam_toolchain.Compile.create_templates ());
    }
  in
  List.init count (fun index ->
      let r = run_one ~ctx (Scengen.build ~seed ~index ()) in
      Feam_obs.Metrics.incr "agree.scenarios";
      if disagrees r then Feam_obs.Metrics.incr "agree.disagreements";
      if r.r_unsound <> [] then Feam_obs.Metrics.incr "agree.unsound";
      r)

let rerun ~seed ~index ~keep = run_one (Scengen.build ~seed ~index ~keep ())

(* -- Scoring -------------------------------------------------------------- *)

(* Positive class = "predicts failure": a predictor scores a true
   positive when it rejects a scenario the oracle also rejects. *)
let confusion runs p =
  List.fold_left
    (fun (tp, fp, fn, tn) r ->
      let rejects = not (Verdict.accepts (verdict_of r p)) in
      let fails = not (Verdict.accepts r.r_oracle) in
      match (rejects, fails) with
      | true, true -> (tp + 1, fp, fn, tn)
      | true, false -> (tp, fp + 1, fn, tn)
      | false, true -> (tp, fp, fn + 1, tn)
      | false, false -> (tp, fp, fn, tn + 1))
    (0, 0, 0, 0) runs

let unsound_count runs p =
  List.length (List.filter (fun r -> List.mem p r.r_unsound) runs)

let score_table runs =
  let tec_accepts = List.filter (fun r -> Verdict.accepts r.r_tec) runs in
  let row p =
    let tp, fp, fn, tn = confusion runs p in
    let overturn =
      if p = Verdict.Tec then "-"
      else
        Table.percent
          (List.length
             (List.filter
                (fun r -> not (Verdict.accepts (verdict_of r p)))
                tec_accepts))
          (List.length tec_accepts)
    in
    [
      Verdict.predictor_name p;
      Table.percent tp (tp + fp);
      Table.percent tp (tp + fn);
      Table.percent (tp + tn) (List.length runs);
      overturn;
      string_of_int (unsound_count runs p);
    ]
  in
  Table.make ~title:"Predictor agreement against the dynamic-linker oracle"
    ~header:
      [ "Predictor"; "Precision"; "Recall"; "Accuracy"; "Overturns TEC";
        "Unsound" ]
    (List.map row [ Verdict.Tec; Verdict.Lint; Verdict.Symcheck ])

let pairwise_table runs =
  let agree a b =
    List.length
      (List.filter
         (fun r ->
           Verdict.accepts (verdict_of r a) = Verdict.accepts (verdict_of r b))
         runs)
  in
  let n = List.length runs in
  let row a =
    Verdict.predictor_name a
    :: List.map (fun b -> Table.percent (agree a b) n) Verdict.predictors
  in
  Table.make ~title:"Pairwise acceptance agreement"
    ~header:("" :: List.map Verdict.predictor_name Verdict.predictors)
    (List.map row Verdict.predictors)

let level_letter = function
  | Verdict.Ready -> "R"
  | Verdict.Degraded -> "D"
  | Verdict.Not_ready -> "N"

let pattern r =
  String.concat ""
    (List.map (fun p -> level_letter (verdict_of r p).Verdict.v_level)
       Verdict.predictors)

let disagreement_table runs =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if disagrees r then begin
        let key = pattern r in
        let count, example, classes =
          Option.value (Hashtbl.find_opt tally key)
            ~default:(0, Scengen.id r.r_scenario, [])
        in
        let classes =
          match r.r_failure with
          | Some f when not (List.mem (Verdict.failure_class f) classes) ->
            classes @ [ Verdict.failure_class f ]
          | _ -> classes
        in
        Hashtbl.replace tally key (count + 1, example, classes)
      end)
    runs;
  let rows =
    Hashtbl.fold (fun k (c, ex, cls) acc -> (k, c, ex, cls) :: acc) tally []
    |> List.sort (fun (ka, ca, _, _) (kb, cb, _, _) ->
           match compare cb ca with 0 -> compare ka kb | o -> o)
    |> List.map (fun (k, c, ex, cls) ->
           [
             k; string_of_int c; ex;
             (if cls = [] then "-" else String.concat ", " cls);
           ])
  in
  Table.make
    ~title:
      "Disagreement patterns (verdicts in tec/lint/symcheck/oracle order)"
    ~header:[ "Pattern"; "Scenarios"; "Example"; "Oracle failure classes" ]
    (if rows = [] then [ [ "-"; "0"; "-"; "-" ] ] else rows)

let render_report runs =
  let buf = Buffer.create 4096 in
  let disagreements = List.length (List.filter disagrees runs) in
  let unsound =
    List.filter (fun r -> r.r_unsound <> []) runs
  in
  Buffer.add_string buf
    (Printf.sprintf
       "agree: %d scenarios, %d disagreements, %d unsound acceptances\n\n"
       (List.length runs) disagreements (List.length unsound));
  Buffer.add_string buf (Table.render (score_table runs));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Table.render (pairwise_table runs));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Table.render (disagreement_table runs));
  if unsound <> [] then begin
    Buffer.add_string buf "\nUnsound acceptances (predictor ready, oracle failed in its territory):\n";
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  %s: %s; oracle: %s\n"
             (Scengen.id r.r_scenario)
             (String.concat ", "
                (List.map Verdict.predictor_name r.r_unsound))
             (match r.r_failure with
             | Some f -> Verdict.failure_class f
             | None -> "-")))
      unsound;
    Buffer.add_string buf
      "  (each perturbation set minimized; see the promoted reproducers)\n"
  end;
  Buffer.contents buf

let record_report runs =
  Feam_flightrec.Recorder.payload ~kind:"agree.report" (fun () ->
      Json.Str (render_report runs))
