(** The caches of an evaluation (DESIGN §17), passed down as a value:
    there is no global instance.

    A pass is one world state: {!Feam_evalharness.Migrate.run_all},
    Audit's build, the depot statistics.  A drift run and a serve
    engine each keep one context for their lifetime: their sites change
    in place, and the pass memo keeps every entry under its site's
    state, so an entry serves every epoch or request that finds its
    site in the state it was made in. *)
type t = {
  describe : Bdc.memo;  (** BDC descriptions, keyed by image content *)
  memo : Pass_memo.t option;
      (** the MPI-stack and source-phase memo; [None] computes every
          time *)
  closures : Feam_dynlinker.Resolve.memo option;
      (** the closure memo under ldd, the probes and ground-truth runs
          (DESIGN §21); [None] walks every time, for a caller whose
          every unit of work is a fresh world, where most walks are
          first walks *)
}

(** A fresh context: a fresh pass memo and closure memo over [describe]
    (default: a fresh describe memo). *)
val create : ?describe:Bdc.memo -> unit -> t

(** The closure memo of an optional context, if any. *)
val closures : t option -> Feam_dynlinker.Resolve.memo option
