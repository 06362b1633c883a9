(** Ablation study: how much each design choice of the extended
    prediction contributes.  Each variant strips one capability out of
    the bundle and re-measures the extended accuracy (Table III) and the
    after-resolution success rate (Table IV). *)

type result = {
  variant : string;
  extended_accuracy_nas : float;
  extended_accuracy_spec : float;
  after_nas : float;
  after_spec : float;
}

(** Run the migration matrix once per variant. *)
val run : Params.t -> result list

val table : result list -> Feam_util.Table.t
