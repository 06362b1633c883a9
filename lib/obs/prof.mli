(** Labeled timers with allocation accounting, feeding the metrics
    registry so [feam stats] can expose the distributions.  A strict
    no-op until [set_enabled true]. *)

val set_enabled : bool -> unit

(** Replace the timer clock (default {!Clock.fixed}, which keeps timer
    output deterministic). *)
val set_clock : Clock.t -> unit

val reset : unit -> unit

(** Words allocated since program start, minor and major heaps
    combined (promotions counted once). *)
val allocated_words : unit -> float

(** [with_timer ?labels name f] runs [f], observing its duration into
    the [name.ns] histogram, its allocation into [name.alloc_words], and
    bumping the [name.calls] counter, all under [labels]. *)
val with_timer : ?labels:(string * string) list -> string -> (unit -> 'a) -> 'a
