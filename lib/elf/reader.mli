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

(** The section headers, in file order. *)
val sections : t -> section list

(** A handle on an image: its bytes and their memo, the parse, the
    content key and the digest, each filled on first demand.  Making one is free: no
    lookup, no hash.  There is no table behind handles, so a holder
    that reads one image many times (a [Feam_sysmodel.Vfs] file, a
    bundle's library copy or probe) keeps its handle; a second handle
    on the same string parses and hashes again.  Dropping every handle
    frees the memo with the image. *)
type image

(** A fresh handle on the image. *)
val image : string -> image

(** The image's bytes, the string the handle was made from. *)
val image_bytes : image -> string

(** Parse the image, once per handle: a later parse through the same
    handle returns the earlier result, [Ok] or [Error], without
    re-reading the bytes.  Hits and misses count as
    [elf.parse_memo.{hit,miss,saved_bytes}].  Not domain-safe: a handle
    shared between domains needs a lock around its first parse. *)
val parse_image : image -> (t, error) result

(** The image's content key, {!Feam_util.Chash.of_bytes} of its bytes,
    computed once per handle.  Never parses, and counts nothing in
    [elf.parse_memo.*].  Works on any string, ELF or not.  This is the
    one place a live image's identity is computed (DESIGN §9). *)
val image_key : image -> Feam_util.Chash.t

(** [Digest.string] of the image's bytes, computed once per handle:
    what the ground truth keys provenance and fault draws on.  Never
    parses. *)
val image_digest : image -> Digest.t

(** [parse data] is [parse_image (image data)]: a fresh handle, so
    every call parses.  For bytes that are not held anywhere else. *)
val parse : string -> (t, error) result

(** Convenience: parse and return just the spec. *)
val spec_of_bytes : string -> (Spec.t, error) result
