(** Depot-backed bundles (DESIGN §9): a manifest is a {!Bundle.t} with
    every payload replaced by its content key.  {!of_bundle} interns the
    payloads into a {!Feam_depot.Store.t}; {!to_bundle} resolves the
    keys back, rebuilding the legacy self-contained bundle
    byte-identically (the export path). *)

module Chash := Feam_util.Chash

type entry = {
  me_request : string;  (** the DT_NEEDED name this object satisfies *)
  me_key : Chash.t;
  me_size : int;
  me_origin : string;
  me_description : Description.t;
}

type probe_ref = {
  mp_name : string;
  mp_key : Chash.t;
  mp_size : int;
  mp_stack : string;
}

type t = {
  man_created_at : string;
  man_description : Description.t;
  man_binary : (Chash.t * int) option;
  man_entries : entry list;
  man_unlocatable : string list;
  man_probes : probe_ref list;
  man_discovery : Discovery.t;
}

(** Intern every payload (binary, library copies, probes) into the store
    and return the manifest of keys.  Copy sidecars record the content
    keys of the copies satisfying their DT_NEEDED names, so the store's
    GC marks through the dependency closure. *)
val of_bundle : Feam_depot.Store.t -> Bundle.t -> t

(** Resolve every key against the store; [Error] names the first missing
    object. *)
val to_bundle : Feam_depot.Store.t -> t -> (Bundle.t, string) result

(** Every distinct content key the manifest references, sorted. *)
val keys : t -> Chash.t list

(** The transfer-planner view: binary first, then the library closure in
    bundle order, then the probes. *)
val wants : t -> Feam_depot.Planner.want list
