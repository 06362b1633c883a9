(** Builds the fleet view [feam audit] analyzes: one
    {!Feam_analysis.Fleet.t} over the whole migration matrix — every
    Table II site, every corpus binary, every library copy observed at
    its home site, every (binary, target) cell verdict, and the shared
    depot store with per-object referenced-by-a-plan flags.

    Everything is sorted per the {!Feam_analysis.Fleet} determinism
    contract, so the audit report is byte-identical across runs of the
    same seed. *)

(** Provision the Table II sites, compile the corpus, run the matrix,
    and build the fleet — the whole [feam audit] pipeline for one seed.
    [on_progress] receives one human-readable line per stage. *)
val of_seed :
  ?on_progress:(string -> unit) -> seed:int -> unit -> Feam_analysis.Fleet.t
