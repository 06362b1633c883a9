(** Serializes a {!Spec.t} into a real ELF image.

    The emitted bytes follow the genuine on-disk encoding: ELF header,
    program headers (PT_INTERP when the spec names a loader, PT_LOAD,
    PT_DYNAMIC), section bodies (.interp, .note.ABI-tag, .dynstr,
    .dynsym, .gnu.version, .gnu.version_r/_d, .dynamic, .comment,
    .shstrtab) and the section header table, in the selected class and
    endianness.  .dynstr stores each distinct string once, at the offset
    of its first insertion; building costs time linear in the spec. *)

(** [build spec] renders the spec as ELF bytes; the result parses back
    with {!Reader.parse} to an equal spec. *)
val build : Spec.t -> string
