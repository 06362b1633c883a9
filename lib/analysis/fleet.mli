(** The fleet view: what a fleet-tier rule sees.  Where a cell rule gets
    one {!Context.t} (one bundle, one target), a fleet rule gets the
    whole migration matrix at once — every site, every binary, every
    observed library copy, every (binary, target) cell verdict, and the
    depot store the plans draw from.  The record is pure data with no
    harness dependency; {!Feam_evalharness}'s audit builder populates it
    from the Table II corpus, and tests build synthetic fleets by hand.

    Determinism contract: builders must present every list sorted
    ([sites] by name, [binaries] by id, [libraries] by (name, site,
    key), [cells] by (binary, target), [store] by key) so rule output
    is byte-stable regardless of construction order. *)

type site = {
  site_name : string;
  site_machine : Feam_elf.Types.machine;
  site_glibc : Feam_util.Version.t;
  site_stacks : string list;  (** MPI implementation slugs, sorted *)
}

(** One library copy observed at a site (gathered into some binary's
    bundle there), reduced to its content-addressed facts. *)
type library = {
  lib_name : string;  (** the DT_NEEDED name it was gathered under *)
  lib_site : string;  (** home site it was observed at *)
  lib_facts : Factbase.facts;
}

type binary = {
  bin_id : string;
  bin_home : string;  (** site the binary was built at *)
  bin_impl : string option;  (** MPI implementation slug, if linked *)
  bin_facts : Factbase.facts;
}

(** One migration-matrix cell: [cell_basic] / [cell_extended] are the
    BDC- and EDC-tier readiness verdicts for shipping [cell_binary]
    from its home to [cell_target]. *)
type cell = {
  cell_binary : string;
  cell_home : string;
  cell_target : string;
  cell_basic : bool;
  cell_extended : bool;
}

(** One depot store object and whether any ready migration's transfer
    plan ever ships it (objects staged solely for predicted-to-fail
    cells stay unreferenced). *)
type store_object = {
  sto_key : Feam_util.Chash.t;
  sto_soname : string option;
  sto_size : int;
  sto_referenced : bool;
}

type t = {
  sites : site list;
  binaries : binary list;
  libraries : library list;
  cells : cell list;
  store : store_object list;
}

(** Cells for one binary id, in matrix order. *)
val cells_of_binary : t -> string -> cell list

(** Distinct (site, facts-key) observations of one library name, sorted
    by (site, key). *)
val observations : t -> string -> library list

(** All library names observed anywhere, sorted. *)
val library_names : t -> string list

val find_site : t -> string -> site option
