(** One epoch of fleet evidence: per-site discoveries and library
    inventories, per-binary descriptions and bundle digests, derived
    depot possession, and the verdict table — numbered, timestamp-free,
    content-addressed, serialized as a versioned {!Feam_util.Jsonl}
    document.

    The same world captured twice serializes byte-identically;
    [of_jsonl] of [to_jsonl] round-trips to the same bytes. *)

type site_state = {
  ss_name : string;
  ss_ld_cache_current : bool;
  ss_discovery : Feam_util.Json.t;
      (** [Discovery.to_json] of the target-mode EDC run *)
  ss_inventory : (string * string) list;
      (** loader-visible library path -> content digest *)
}

type binary_state = {
  bs_id : string;
  bs_home : string;
  bs_digest : string;  (** content hash of the binary image *)
  bs_error : string option;  (** source-phase failure, if any *)
  bs_description : Feam_util.Json.t;
      (** [Description.to_json]; [Null] under [bs_error] *)
  bs_bundle : (string * string) list;
      (** bundle element (copy:/probe:/unlocatable:/source_discovery)
          -> content digest *)
}

type cell = {
  cl_binary : string;
  cl_target : string;
  cl_basic : bool;
  cl_basic_reasons : string list;
  cl_extended : bool;
  cl_extended_reasons : string list;
  cl_staged : string list;
}

type t = {
  epoch : int;
  seed : int;
  label : string;
      (** the perturbation this epoch applied; [""] at baseline *)
  sites : site_state list;
  binaries : binary_state list;
  possession : (string * string list) list;
      (** site -> digests of depot objects ready cells shipped there *)
  cells : cell list;
}

(** Sort every list by its natural key so capture order never leaks
    into serialization or hashing.  Applied by [to_jsonl] itself. *)
val normalize : t -> t

val ready_cells : t -> int

(** Extended-ready cells over total cells; 0 on an empty matrix. *)
val readiness_rate : t -> float

(** Serialize to the versioned JSONL epoch document (header line, then
    one record per site/binary/possession/cell).  Deterministic. *)
val to_jsonl : t -> string

(** Parse an epoch document through {!Feam_util.Jsonl}; errors carry
    physical line numbers.  Rejects non-epoch documents and schemas
    outside [1..schema_version]. *)
val of_jsonl : string -> (t, string) result

(** Content address of the epoch: [Feam_util.Chash] over the serialized
    body under a drift-specific domain prefix, in hex. *)
val hash : t -> string

(** Who an evidence atom belongs to — the unit invalidation maps back
    to matrix cells.  The core evidence map's owner
    ({!Feam_core.Evidence.owner}), so the atom diff and the reach rule
    speak one vocabulary. *)
type owner = Feam_core.Evidence.owner =
  | Site_owner of string
  | Binary_owner of string

val owner_to_string : owner -> string

(** One site's evidence as (dotted path, value) atoms. *)
val site_atoms : site_state -> (string * string) list

(** One binary's evidence as (dotted path, value) atoms. *)
val binary_atoms : binary_state -> (string * string) list

(** Every fleet-evidence fact, as each owner's atoms, sites then
    binaries, each by name.  Cells and possession are derived data and
    contribute no atoms. *)
val evidence_atoms : t -> (owner * (string * string) list) list
