(** Serializes a {!Spec.t} into a real ELF image.

    The emitted bytes follow the genuine on-disk encoding: ELF header,
    section bodies (.note.ABI-tag, .dynstr, .gnu.version_r/_d, .dynamic,
    .comment, .shstrtab) and the section header table, in the selected
    class and endianness.  No program headers are emitted: everything the
    framework and the dynamic-linker simulator read is section-level
    metadata, which is also all `objdump -p` needs. *)

(** [build spec] renders the spec as ELF bytes; the result parses back
    with {!Reader.parse} to an equal spec. *)
val build : Spec.t -> string
