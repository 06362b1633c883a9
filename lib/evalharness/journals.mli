(** Per-cell flight-recorder journals for the migration matrix: one
    self-contained journal per (binary, target site) cell, written
    through an injected writer. *)

(** Make a name safe for use as a journal file name. *)
val sanitize : string -> string

(** The journal file name for one matrix cell. *)
val cell_name : Testset.binary -> Feam_sysmodel.Site.t -> string

(** Journal one cell (the extended prediction when the source phase
    succeeds, the basic one otherwise); returns the name written.
    [stacks] is the pass's MPI-stack memo. *)
val journal_cell :
  ?clock:Feam_util.Sim_clock.t ->
  ?stacks:Feam_core.Stack_memo.t ->
  write:(name:string -> string -> unit) ->
  Testset.binary ->
  Feam_sysmodel.Site.t ->
  string

(** Journal every reported cell of the migration matrix (each binary at
    every other site with a matching MPI implementation) with one
    MPI-stack memo; each journal is byte-identical to
    {!journal_cell}'s without one.  Returns the journal names
    written. *)
val write_cells :
  ?clock:Feam_util.Sim_clock.t ->
  write:(name:string -> string -> unit) ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  string list
