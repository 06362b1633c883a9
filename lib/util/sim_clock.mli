(** Simulated wall-clock accounting.  Site operations (tool invocations,
    compiles, batch-queue waits, probe runs) charge seconds to a clock so
    the evaluation can report FEAM phase durations (paper §VI.C: both
    phases always under five minutes). *)

type t

val create : unit -> t

(** @raise Invalid_argument on negative durations. *)
val charge : t -> float -> unit

(** A fresh clock that also remembers each charge.  Re-applying
    {!charges} in order to another clock advances it exactly as the
    recorded work would have: float sums depend on their order. *)
val recording : unit -> t

(** The charges a {!recording} clock received, oldest first; [[]] for
    any other clock. *)
val charges : t -> float list

val elapsed : t -> float
val reset : t -> unit

(** "3m42s"-style rendering. *)
val to_string : t -> string
