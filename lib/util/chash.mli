(** The content hash: a deterministic function of the payload bytes
    alone.  Identical bytes yield identical keys regardless of the path,
    site, or time they were captured from.  A live ELF image's key is
    read through its handle, [Feam_elf.Reader.image_key], which computes
    it once per handle. *)

type t

(** Hash a payload.  This is the single definition of content identity
    (DESIGN §9). *)
val of_bytes : string -> t

(** 32 lowercase hex characters. *)
val to_hex : t -> string

(** Parse a key back from its hex rendering. *)
val of_hex : string -> t option

(** Leading 12 hex digits, for tables and log lines. *)
val short : t -> string

val compare : t -> t -> int
