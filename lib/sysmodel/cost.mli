(** Simulated durations of site operations, in seconds, charged to a
    {!Feam_util.Sim_clock} (paper §VI.C timing). *)

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

(** Charge a duration to an optional clock.  A running
    {!Feam_util.Effects.capture} notes a [Charge] either way, so a memo
    hit can charge its caller's clock what the miss charged. *)
val charge : Feam_util.Sim_clock.t option -> float -> unit
