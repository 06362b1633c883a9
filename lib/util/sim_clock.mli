(** Simulated wall-clock accounting.  Site operations (tool invocations,
    compiles, batch-queue waits, probe runs) charge seconds to a clock so
    the evaluation can report FEAM phase durations (paper §VI.C: both
    phases always under five minutes). *)

type t

val create : unit -> t

(** Library code charges through {!Feam_sysmodel.Cost.charge}, which
    also notes the charge on a running effect capture.

    @raise Invalid_argument on negative durations. *)
val charge : t -> float -> unit

val elapsed : t -> float

(** "3m42s"-style rendering. *)
val to_string : t -> string
