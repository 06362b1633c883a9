(* Simulated durations of site operations, in seconds.  Charged to the
   {!Feam_util.Sim_clock}s in scope so the evaluation can report FEAM phase
   durations (paper §VI.C: each phase under five minutes, dominated by
   probe runs through the batch queue). *)

let tool_call = 0.05          (* objdump / readelf / uname / cat *)
let ldd_call = 0.2            (* runs the dynamic linker *)
let locate_query = 2.0        (* locate database scan *)
let find_walk = 15.0          (* find(1) over common library locations *)
let module_query = 0.5        (* module avail / softenv listing *)
let compile_serial = 5.0      (* native cc of a probe program *)
let compile_mpi = 12.0        (* mpicc of an MPI probe *)
let probe_run_serial = 2.0    (* running a serial probe on the login node *)
let probe_run_mpi = 8.0       (* MPI probe execution once scheduled *)
let copy_per_mb = 0.02        (* staging a shared-library copy *)
let bundle_pack_base = 3.0    (* tar/ssh overhead for the source bundle *)

(* The only charge in lib/: every clock in scope takes it, and every
   running tape keeps it for a memo hit to charge again. *)
let charge seconds =
  if Feam_util.Effects.capturing () then
    Feam_util.Effects.(note (Charge seconds))
