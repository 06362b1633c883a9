(** Time sources for the observability layer: spans, the profiler and
    the cost ledger read nanoseconds through an injectable clock, so
    deterministic runs stay reproducible. *)

type t = unit -> int64  (** nanoseconds *)

(** A clock that always reads [at] (default 0): the deterministic
    default. *)
val fixed : ?at:int64 -> unit -> t

(** The wall clock, for CLI runs. *)
val wall : t

(** A hand-driven clock for deterministic tests. *)
type manual = { mutable now_ns : int64 }

val manual : unit -> manual
val of_manual : manual -> t

(** @raise Invalid_argument on a negative step. *)
val advance : manual -> int64 -> unit
