(** Exposition surfaces for the metrics registry.  Both renderers walk
    the registry in sorted order and format numbers without locale or
    precision surprises, so identical runs render byte-identically. *)

(** The Prometheus text format: one [# TYPE] line per metric name,
    names prefixed [feam_], label values escaped. *)
val render_prom : unit -> string

(** One JSON record per registry entry, key-sorted; [now_ns] (default
    0) stamps every record. *)
val render_jsonl : ?now_ns:int64 -> unit -> string
