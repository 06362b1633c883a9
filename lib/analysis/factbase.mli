(** The fact base (DESIGN §12): per-artifact facts — the parsed spec,
    exported/needed symbols, verneeds, soname, ISA, interp, glibc floor
    — projected from an image handle.  The spec or parse error and the
    content key both come from {!Feam_elf.Reader}, which parses and
    hashes each handle's image once; this module holds no state of its
    own. *)

type facts = {
  fb_key : Feam_util.Chash.t;  (** content identity of the bytes *)
  fb_size : int;
  fb_spec : Feam_elf.Spec.t option;  (** [None] when the bytes do not parse *)
  fb_parse_error : string option;
  fb_soname : string option;
  fb_needed : string list;  (** DT_NEEDED, link order *)
  fb_verneeds : Feam_elf.Spec.verneed list;
  fb_machine : Feam_elf.Types.machine option;
  fb_elf_class : Feam_elf.Types.elf_class option;
  fb_interp : string option;
  fb_exports : string list;  (** defined dynamic symbols, sorted, deduped *)
  fb_glibc_floor : Feam_util.Version.t option;
      (** newest GLIBC_x version bound from a C library — the oldest
          glibc that can host the object *)
}

(** The facts for a payload, ELF or not:
    {!Feam_elf.Reader.parse_image}'s spec or error plus
    {!Feam_elf.Reader.image_key}. *)
val facts_of_image : Feam_elf.Reader.image -> facts

(** {!Feam_elf.Reader.spec_of_bytes} with the error rendered by
    {!Feam_elf.Reader.error_to_string}. *)
val spec_of_bytes : string -> (Feam_elf.Spec.t, string) result

(** Kept for callers that reset between runs; the fact base holds
    nothing, so there is nothing left to drop. *)
val reset : unit -> unit
