(** The caches of one evaluation pass (DESIGN §17), passed down as a
    value: there is no global instance.

    A pass is one world state: {!Feam_evalharness.Migrate.run_all},
    Audit's build, the depot statistics, one drift epoch, one serve
    request.  Drift runs and the serve engine hold a describe memo for
    their lifetime and create a context around it for every pass:
    descriptions stay valid across passes (they are keyed by image
    content), probe outcomes and bundles do not (sites change between
    passes). *)
type t = {
  describe : Bdc.memo;  (** BDC descriptions, may outlive the pass *)
  memo : Pass_memo.t option;
      (** the pass's MPI-stack and source-phase memo; [None] computes
          every time *)
}

(** A fresh pass: a fresh pass memo over [describe] (default: a fresh
    describe memo). *)
val create : ?describe:Bdc.memo -> unit -> t
