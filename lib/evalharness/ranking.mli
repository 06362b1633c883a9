(** Site ranking: the paper's motivating use-case (§I, quicker access via
    shorter queues) as a decision aid.  Predicted-ready sites are ordered
    by expected time-to-first-result; blocked sites trail with their
    blocking reason. *)

type entry = {
  rank_site : string;
  ready : bool;
  queue_wait_seconds : float;
  phase_seconds : float;
  staged_libraries : int;
  blocking_reason : string option;
}

val time_to_first_result : entry -> float

(** Rank candidate sites for a bundle. *)
val rank :
  Feam_core.Config.t ->
  Feam_core.Bundle.t ->
  Feam_sysmodel.Site.t list ->
  entry list

val table : entry list -> Feam_util.Table.t
