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

(** A handle on a live image: its bytes and its entry in the per-image
    memo behind {!parse} and {!content_key}.  Making one looks the
    image up in the memo, which hashes every byte of it; reading a
    handle hashes nothing.  A holder that reads one image many times
    (a [Feam_sysmodel.Vfs] file, a bundle's library copy) keeps its
    handle.  Holding a handle keeps the image and its entry alive. *)
type image

(** The handle of an image: the one lookup that hashes.  Physically
    the same string ([==]) gets the same memo entry; an equal copy gets
    a fresh one. *)
val image : string -> image

(** The image's bytes, the string the handle was made from. *)
val image_bytes : image -> string

(** Parse the image, once per memo entry: a later parse through any
    handle on the same string returns the earlier result, [Ok] or
    [Error], without re-reading the bytes.  Hits and misses count as
    [elf.parse_memo.{hit,miss,saved_bytes}].  Not domain-safe. *)
val parse_image : image -> (t, error) result

(** The image's content key, {!Feam_util.Chash.of_bytes} of its bytes,
    held in the same memo entry as {!parse_image}'s result, so one
    string hashes once.  Never parses, and counts nothing in
    [elf.parse_memo.*].  Works on any string, ELF or not.  This is the
    one place a live image's identity is computed (DESIGN §9). *)
val image_key : image -> Feam_util.Chash.t

(** [parse data] is [parse_image (image data)]: one lookup, then the
    memoized parse.  Entries go away with their image (ephemeron keys),
    so the memo holds only images the caller still references.  Code
    that reads files from a [Feam_sysmodel.Vfs] uses the file's handle
    instead. *)
val parse : string -> (t, error) result

(** [content_key data] is [image_key (image data)]. *)
val content_key : string -> Feam_util.Chash.t

(** @raise Invalid_argument when {!parse} would return an error. *)
val parse_exn : string -> t

(** Convenience: parse and return just the spec. *)
val spec_of_bytes : string -> (Spec.t, error) result
