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

(** [charge_cached t s] is [charge t s] for work whose result a cache
    now holds: a recording clock remembers it, but it is not among the
    {!replayed_charges}, since running the work again would hit the
    cache and charge nothing. *)
val charge_cached : t -> float -> unit

(** The charges a {!recording} clock received, oldest first; [[]] for
    any other clock. *)
val charges : t -> float list

(** The {!charges} that were not {!charge_cached}, oldest first: what
    running the recorded work again would charge. *)
val replayed_charges : t -> float list

val elapsed : t -> float

(** "3m42s"-style rendering. *)
val to_string : t -> string
