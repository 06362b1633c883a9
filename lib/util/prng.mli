(** Deterministic splittable PRNG (splitmix64).

    All stochastic behaviour in the simulators — transient system errors,
    per-site quirks, compile failures — draws from seeded streams so that
    every evaluation run is exactly reproducible. *)

type t

val create : int -> t

(** Uniform int in [\[0, bound)].
    @raise Invalid_argument when [bound <= 0]. *)
val int : t -> int -> int

(** Bernoulli draw with success probability [p].
    @raise Invalid_argument when [p] is outside [\[0, 1\]]. *)
val bool : t -> float -> bool

(** FNV-style hash of a seed and key: the stream index behind
    {!of_key}, also usable directly as a derived seed. *)
val hash_key : int -> string -> int

(** Derive an independent stream from a seed and a string key.  Gives each
    keyed coordinate (site, stack, benchmark, ...) its own deterministic
    draw, insensitive to evaluation order. *)
val of_key : seed:int -> string -> t

(** One-shot deterministic Bernoulli draw for a keyed coordinate. *)
val keyed_bool : seed:int -> p:float -> string -> bool

(** Uniform choice.
    @raise Invalid_argument on an empty list. *)
val pick : t -> 'a list -> 'a
