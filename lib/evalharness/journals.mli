(** Per-cell flight-recorder journals for the migration matrix: one
    self-contained journal per (binary, target site) cell, written
    through an injected writer. *)

(** Make a name safe for use as a journal file name. *)
val sanitize : string -> string

(** Journal one cell (the extended prediction when the source phase
    succeeds, the basic one otherwise); returns the name written.
    [ctx] is the evaluation pass's context.  A cell that raises still
    writes the journal of what it recorded, then re-raises. *)
val journal_cell :
  ?ctx:Feam_core.Eval_ctx.t ->
  write:(name:string -> string -> unit) ->
  Testset.binary ->
  Feam_sysmodel.Site.t ->
  string

(** Journal every reported cell of the migration matrix (each binary at
    every other site with a matching MPI implementation) under one
    {!Feam_core.Eval_ctx}; each journal is byte-identical to
    {!journal_cell}'s under {!Feam_core.Eval_ctx.reference}, with no
    cache.  Returns the journal names written. *)
val write_cells :
  write:(name:string -> string -> unit) ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  string list
