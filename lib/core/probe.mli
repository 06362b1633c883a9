(** MPI stack probing (paper §III.B, §V.C): a stack is deemed usable only
    if a basic MPI program actually executes under it.

    Native probes (hello world compiled at the target) detect
    misconfigured stacks; foreign probes (shipped from the guaranteed
    environment, compiled with the application's stack) additionally
    detect ABI and floating-point defects that only foreign builds hit —
    the extended prediction's edge (§VI.C). *)

type probe_result = (unit, string) result

(** Full stack test: native probe when possible, then every shipped
    probe.  Passes only if all applicable probes pass; errors when no
    probe can be run at all (the stack cannot be vouched for).  The
    native probe compiles through [ctx]'s template table and the probe
    runs resolve through its closure memo, if any. *)
val test_stack :
  ?ctx:Eval_ctx.t ->
  Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Feam_sysmodel.Stack_install.t ->
  bundle:Bundle.t option ->
  target_glibc:Feam_util.Version.t option ->
  probe_result
