(** The caches of one evaluation pass (DESIGN §17), passed down as a
    value: there is no global instance.

    A pass ({!Feam_evalharness.Migrate.run_all}, Audit's build, the
    depot statistics, the agree corpus) creates one context.  Drift
    runs and the serve engine hold one for their lifetime and start
    each prediction pass with {!next_pass}: descriptions stay valid
    across passes (they are keyed by image content), probe outcomes do
    not (sites change between passes). *)
type t = {
  describe : Bdc.memo;  (** BDC descriptions, kept across passes *)
  stacks : Stack_memo.t option;
      (** the MPI-stack determinant's memo; [None] probes every time *)
}

(** A fresh describe memo and a fresh stack memo. *)
val create : unit -> t

(** The same describe memo with a fresh stack memo. *)
val next_pass : t -> t
