(** Migration-strategy advisor: the paper's future-work direction of
    handling MPI application {e source} migration alongside binaries
    (§VII).  Compares running the migrated binary (fast, FEAM-configured)
    against recompiling at the target (slower, needs source and a
    toolchain). *)

type recompile_check = {
  rc_stack_slug : string;  (** stack whose wrappers would be used *)
  rc_estimate_seconds : float;
}

type strategy =
  | Use_binary of Predict.plan
      (** the migrated binary is predicted ready: run it as configured *)
  | Recompile of recompile_check
      (** binary not ready, but the target can rebuild from source *)
  | Not_viable of string list
      (** neither the binary nor a rebuild can work at this target *)

type advice = {
  strategy : strategy;
  binary_prediction : Predict.t;
  considered_recompile : recompile_check option;
  rationale : string;
}

(** Combine a binary prediction with the recompilation check.  Pass
    [source = None] for community codes distributed as binaries. *)
val advise :
  Feam_sysmodel.Site.t ->
  binary_prediction:Predict.t ->
  source:Feam_toolchain.Compile.program option ->
  advice

val strategy_to_string : strategy -> string
