(** Seed sweep: rerun the full evaluation over several seeds and
    aggregate each headline metric against the paper's values. *)

type metrics = (string * float) list

type aggregate = {
  metric : string;
  paper : float;
  mean : float;
  minimum : float;
  maximum : float;
}

(** Sweep [n] consecutive seeds. *)
val run : ?on_progress:(int -> unit) -> ?first_seed:int -> int -> aggregate list

val table : seeds:int -> aggregate list -> Feam_util.Table.t
