(** The caches of an evaluation (DESIGN §17), passed down as a value:
    there is no global instance.

    A pass is one world state: {!Feam_evalharness.Migrate.run_all},
    Audit's build, the depot statistics, one drift epoch.  Drift runs
    hold a describe memo for their lifetime and create a context around
    it for every epoch: an epoch rebuilds its world, and the pass memo's
    guard refuses a rebuilt site.  A serve engine keeps one context for
    its lifetime: its sites change in place, each change moves the
    site's generation, and the pass memo keys every entry on it, so an
    entry serves every request until its site changes. *)
type t = {
  describe : Bdc.memo;  (** BDC descriptions, keyed by image content *)
  memo : Pass_memo.t option;
      (** the MPI-stack and source-phase memo; [None] computes every
          time *)
}

(** A fresh context: a fresh pass memo over [describe] (default: a
    fresh describe memo). *)
val create : ?describe:Bdc.memo -> unit -> t
