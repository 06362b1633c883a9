(** Seeded scenario generator: the fuzzing front-end of the differential
    predictor-agreement harness (ROADMAP item 5).

    A scenario is one binary × site configuration: a home site where the
    binary is compiled, a target site it migrates to, and a drawn set of
    {e perturbations} — library version skews within and across majors,
    stripped [.comment]/version sections, symbol drops hidden behind
    stable sonames, rpath/runpath tricks, partial module databases,
    LD_LIBRARY_PATH interposition, missing bundle objects.

    Generation is fully deterministic and {e splittable}: every scenario
    is a pure function of [(seed, index, keep)], where [keep] selects
    which of the drawn perturbations are actually applied.  Parameter
    draws always happen (from per-coordinate keyed streams), whether or
    not a perturbation is kept — so undoing one perturbation never
    shifts another, which is what lets the disagreement minimizer shrink
    a scenario by toggling [keep] bits. *)

(** One drawn perturbation.  The payload names the library whose image,
    search path or bundle copy is being tampered with. *)
type perturbation =
  | Cross_isa  (** target is a different architecture (PPC64) *)
  | Glibc_downgrade  (** target forced to the oldest distro profile *)
  | Drop_stack  (** target offers no MPI stack of the binary's type *)
  | Unregistered_stack
      (** stack installed but absent from the module database *)
  | Misconfigured_stack  (** stack advertised but broken *)
  | Stale_ld_cache  (** ld.so.conf edited, ldconfig never re-run *)
  | Remove_lib of string  (** library deleted from the target *)
  | Major_skew of string  (** target only carries the next soname major *)
  | Vintage_downgrade of string
      (** target build drops its newest feature symbol, same soname *)
  | Foreign_lib of string
      (** target's copy was taken from a newer-glibc system: its version
          needs exceed what the target's C library defines *)
  | Ld_path_interpose of string
      (** LD_LIBRARY_PATH interposes a stale build of the library *)
  | Rpath_decoy of string
      (** binary DT_RPATH points at a decoy dir with a wrong-arch build *)
  | Runpath_ghost  (** binary DT_RUNPATH names a directory that is gone *)
  | Strip_comments  (** binary .comment section stripped *)
  | Strip_verneed  (** binary .gnu.version_r stripped *)
  | Drop_bundle_copy of string
      (** the source phase's bundle loses this library's copy *)
  | Remove_interp  (** the dynamic loader is absent at the target *)

val perturbation_to_string : perturbation -> string

(** A generated scenario, built and ready to run predictors over. *)
type t = {
  sc_seed : int;
  sc_index : int;
  sc_all : perturbation list;  (** full drawn list, canonical order *)
  sc_keep : int list;  (** indices into [sc_all] that were applied *)
  sc_home : Feam_sysmodel.Site.t;
  sc_target : Feam_sysmodel.Site.t;
  sc_home_install : Feam_sysmodel.Stack_install.t option;
      (** the stack the binary was built with; [None] for serial *)
  sc_target_install : Feam_sysmodel.Stack_install.t option;
      (** the matching stack at the target, when one is installed *)
  sc_program : Feam_toolchain.Compile.program;
  sc_binary_path : string;  (** the compiled binary's path at home *)
  sc_binary_bytes : string;  (** its image after binary perturbations *)
  sc_extra_ld_dirs : string list;
      (** directories the target session's LD_LIBRARY_PATH carries *)
}

(** "seed/index" — the scenario's stable identity. *)
val id : t -> string

(** Perturbations actually applied ([sc_all] filtered by [sc_keep]). *)
val applied : t -> perturbation list

(** Build scenario [index] of stream [seed].  [keep] (default: all)
    selects which drawn perturbations to apply, by index into the drawn
    list.  Each build makes its own world
    ({!Feam_sysmodel.Build_world.create}), so a scenario built standalone is
    byte-identical to the same scenario built mid-corpus. *)
val build : seed:int -> index:int -> ?keep:int list -> unit -> t

(** Drop the bundle copies a kept [Drop_bundle_copy] names. *)
val bundle_filter : t -> Feam_core.Bundle.t -> Feam_core.Bundle.t
