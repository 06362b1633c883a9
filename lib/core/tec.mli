(** Target Evaluation Component (paper §V.C): matches the BDC's binary
    description against the EDC's environment description, probes
    candidate MPI stacks, applies the resolution model, and produces the
    prediction with its execution plan.

    Evaluation order follows the paper: ISA and C-library determinants
    first (fail fast), then MPI stack probing, then shared libraries with
    resolution. *)

type input = {
  config : Config.t;
  description : Description.t;
  binary_path : string option;
      (** the binary's location at the target, when it is present *)
  bundle : Bundle.t option;
  discovery : Discovery.t;
}

(** Recorded outcome of the MPI-stack determinant's effects: which
    advertised stack passed probes, and why the others failed. *)
type stack_evidence = {
  se_functioning : string option;
  se_probe_failures : (string * string) list;  (** slug, failure detail *)
}

(** Recorded outcome of the shared-library determinant's effects. *)
type libs_evidence = {
  le_missing : string list;
  le_staged : (string * string) list;  (** needed name -> staged path *)
  le_unresolved : (string * string) list;  (** name, why it failed *)
}

(** The four determinants [decide] evaluates, in order, named as the
    flight recorder's decision records name them — the same vocabulary
    [Evidence.determinants_of_atom] maps evidence atoms back to. *)
val determinant_names : string list

(** The pure decision core, shared between live evaluation and
    `feam replay`: computes the prediction from the description, the
    discovery, and the recorded outcomes of the effectful steps.
    Stack/library evidence required by the decision but absent (a
    truncated or tampered journal) yields an explicit
    "incomplete evidence" not-ready verdict. *)
val decide :
  config:Config.t ->
  description:Description.t ->
  discovery:Discovery.t ->
  ?stack:stack_evidence ->
  ?libs:libs_evidence ->
  unit ->
  Predict.t

(** Run the full evaluation.  When [ctx] carries a stack memo, the
    MPI-stack determinant goes through it; otherwise it probes every
    time. *)
val evaluate :
  ?clock:Feam_util.Sim_clock.t ->
  ?depot:Resolve_model.depot ->
  ?ctx:Eval_ctx.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  input ->
  Predict.t
