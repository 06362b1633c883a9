(* Simulated durations of site operations, in seconds.  Charged to a
   {!Feam_util.Sim_clock} so the evaluation can report FEAM phase
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

(* The only charge in lib/: a running effect capture notes it, also
   with no clock, so a memo entry a clockless caller made still charges
   a later caller's clock on a hit. *)
let charge clock seconds =
  (match clock with
  | None -> ()
  | Some c -> Feam_util.Sim_clock.charge c seconds);
  if Feam_util.Effects.capturing () then
    Feam_util.Effects.(note (Charge seconds))
