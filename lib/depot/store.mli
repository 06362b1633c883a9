(** The content-addressed library store (DESIGN §9): ELF payloads keyed
    by {!Chash.of_bytes} with metadata sidecars and a
    mark-and-sweep GC over recorded dependency keys.  All listings are
    key-ordered, so equal contents render byte-identically. *)

module Chash := Feam_util.Chash

type meta = {
  m_soname : string option;
  m_version : string option;
  m_provider : string option;
  m_origin : string;
  m_size : int;
  m_deps : string list;  (** content keys of dependencies, hex *)
}

val meta :
  ?soname:string ->
  ?version:string ->
  ?provider:string ->
  ?origin:string ->
  ?deps:string list ->
  size:int ->
  unit ->
  meta

type entry = {
  e_key : Chash.t;
  e_bytes : string;
  mutable e_meta : meta;
}

type t

(** Whether an {!intern} found the payload already stored. *)
type status = Hit | Miss

val create : unit -> t

(** Add a payload or recognize it, keyed by the handle's content key
    ({!Feam_elf.Reader.image_key}, hashed at most once per handle).
    Bumps the [depot.hit] / [depot.miss] counters and journals a depot
    evidence record.  On a hit the stored sidecar wins; the new capture
    only fills fields it lacks. *)
val intern : t -> meta:meta -> Feam_elf.Reader.image -> status * Chash.t

val find : t -> Chash.t -> entry option
val mem : t -> Chash.t -> bool
val object_count : t -> int
val total_bytes : t -> int

type gc_report = { swept : Chash.t list; kept : int; swept_bytes : int }

(** Mark from [roots], following recorded
    dependency keys; sweep everything unmarked (bumps [depot.gc_swept]). *)
val gc : ?roots:Chash.t list -> t -> gc_report

(** Entries in key order — the canonical iteration. *)
val entries : t -> entry list

(** One line per object, key-sorted; byte-identical for equal stores. *)
val listing : t -> string

val to_json : t -> Feam_util.Json.t

(** Persist to / load from a host directory
    ([objects/<aa>/<key>] payloads with [.meta] sidecars).  Pins are
    runtime state and are not persisted. *)
val save_dir : t -> string -> unit

(** Load an existing depot directory, or start an empty store when the
    directory holds none. *)
val open_dir : string -> (t, string) result
