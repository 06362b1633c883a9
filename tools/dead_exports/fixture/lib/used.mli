(** Read by the user library. *)
val used : int

(** Planted: nothing outside this module reads it. *)
val planted_dead : int
