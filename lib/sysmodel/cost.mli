(** Simulated durations of site operations, in seconds, charged to the
    {!Feam_util.Sim_clock}s in scope (paper §VI.C timing). *)

val tool_call : float
val ldd_call : float
val locate_query : float
val find_walk : float
val module_query : float
val compile_serial : float
val compile_mpi : float
val probe_run_serial : float
val probe_run_mpi : float
val copy_per_mb : float
val bundle_pack_base : float

(** Charge a duration to every clock in scope
    ({!Feam_util.Effects.with_clock}) and note it on every running
    {!Feam_util.Effects.capture}.  With neither open it costs one
    allocation-free test. *)
val charge : float -> unit
