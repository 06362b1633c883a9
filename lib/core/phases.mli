(** FEAM's two phases (paper §V, Figure 2).

    The {e source phase} (optional) runs at a guaranteed execution
    environment: BDC on the binary, EDC on the environment, probe
    generation and bundling.  The {e target phase} (required) runs at
    each target site and produces the prediction report.  Running both
    phases enables the extended prediction and the resolution model. *)

(** Run the source phase at a guaranteed execution environment.  Fails
    when the loaded MPI stack does not match the one the binary was built
    with (the environment cannot vouch for the binary, §V.B).  [ctx] is
    the evaluation pass's context: its describe memo serves the BDC
    run, and its pass memo runs the phase once per distinct input
    ({!Pass_memo.find_or_source}). *)
val source_phase :
  ?ctx:Eval_ctx.t ->
  Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  binary_path:string ->
  (Bundle.t, string) result

(** Run the target phase.  Supply a [bundle] (extended mode; the binary
    travels inside it) and/or the binary's [binary_path] at the target
    (basic mode).  [ctx] is the evaluation pass's context: its describe
    memo serves the basic-mode BDC run, its pass memo {!Tec.evaluate}. *)
val target_phase :
  ?depot:Resolve_model.depot ->
  ?ctx:Eval_ctx.t ->
  Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  ?bundle:Bundle.t ->
  ?binary_path:string ->
  unit ->
  (Report.t, string) result
