(** String helpers missing from the standard library. *)

(** [occurs_at ~sub s i]: does [sub] occur in [s] at offset [i]?
    Compares in place; [false] when [sub] would not fit there. *)
val occurs_at : sub:string -> string -> int -> bool

(** [find ?from ?until ~sub s] is the first offset at or after [from]
    (default 0) where [sub] occurs in [s] and ends at or before [until]
    (default the end of [s]).
    @raise Invalid_argument on an empty [sub]. *)
val find : ?from:int -> ?until:int -> sub:string -> string -> int option

(** Does the string contain the substring?
    @raise Invalid_argument on an empty substring. *)
val contains : sub:string -> string -> bool
