(** Registered by {!Registry}; everything else is private. *)
val rule : Rule.t
