(** Simulated wall-clock accounting.  Site operations (tool invocations,
    compiles, batch-queue waits, probe runs) charge seconds to the clocks
    in scope ({!Effects.with_clock}) so the evaluation can report FEAM
    phase durations (paper §VI.C: both phases under five minutes). *)

type t

val create : unit -> t

(** Library code charges through {!Feam_sysmodel.Cost.charge}, which
    reaches every clock in scope and every running effect tape.

    @raise Invalid_argument on negative durations. *)
val charge : t -> float -> unit

val elapsed : t -> float

(** "3m42s"-style rendering. *)
val to_string : t -> string
