(** Parses ELF images back into a {!Spec.t} plus section-level metadata.
    This is the only channel through which the migration framework and
    the dynamic-linker simulator see binaries. *)

type error =
  | Not_elf  (** missing \x7fELF magic *)
  | Unsupported of string  (** unknown class/endian/machine/type code *)
  | Malformed of string  (** structurally broken image *)

val error_to_string : error -> string

type section = {
  name : string;
  sh_type : int;
  sh_offset : int;
  sh_size : int;
  sh_link : int;
  sh_info : int;
  sh_addr : int;
}

type t

val spec : t -> Spec.t
val sections : t -> section list

(** Image size in bytes. *)
val size : t -> int

(** [Digest.string] of the image bytes, computed once per parse. *)
val digest : t -> Digest.t

val section_by_name : t -> string -> section option

(** Parse an image.  Memoized per live image: parsing the same string
    again (physically the same, [==]) returns the earlier result, [Ok]
    or [Error], without re-reading the bytes; an equal copy parses
    afresh.  Entries go away with their image (ephemeron keys), so the
    memo holds only images the caller still references.  Hits and
    misses count as [elf.parse_memo.{hit,miss,saved_bytes}].  Not
    domain-safe. *)
val parse : string -> (t, error) result

(** The image's content key, {!Feam_util.Chash.of_bytes} of its bytes,
    held in the same per-image memo entry as {!parse}'s result: the
    same live string hashes once, an equal copy hashes afresh.  Never
    parses, and counts nothing in [elf.parse_memo.*].  Works on any
    string, ELF or not.  This is the one place a live image's identity
    is computed (DESIGN §9). *)
val content_key : string -> Feam_util.Chash.t

(** @raise Invalid_argument when {!parse} would return an error. *)
val parse_exn : string -> t

(** Convenience: parse and return just the spec. *)
val spec_of_bytes : string -> (Spec.t, error) result
