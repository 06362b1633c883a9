(** Phase timing and bundle-size measurement (paper §VI.C: both FEAM
    phases always under five minutes; per-site library bundles averaged
    about 45 MB). *)

type phase_timing = {
  binary_id : string;
  target : string;
  source_seconds : float;
  target_seconds : float;
}

(** Time FEAM's phases for one migration on simulated clocks. *)
val time_migration : Testset.binary -> Feam_sysmodel.Site.t -> phase_timing

(** One binary per home site, timed to every matching target. *)
val sample_timings :
  Feam_sysmodel.Site.t list -> Testset.binary list -> phase_timing list

val max_seconds : phase_timing list -> float

(** Per-phase breakdown read back from the observability registry's
    eval.phase_s histograms: runs, mean/total simulated seconds, and the
    count of runs over the paper's five-minute budget. *)
val phase_breakdown_table : unit -> Feam_util.Table.t

val bundle_report :
  Feam_sysmodel.Site.t list -> Testset.binary list -> (string * int) list

val mb : int -> float
