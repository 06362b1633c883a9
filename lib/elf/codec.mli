(** Endian-aware byte codecs used by the ELF builder and reader. *)

exception Truncated of string

module Writer : sig
  type t

  (** [size] is the initial capacity in bytes; the writer grows past
      it as needed. *)
  val create : size:int -> Types.endian -> t
  val contents : t -> string
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit

  (** Class-dependent word: 32-bit field in ELF32, 64-bit in ELF64. *)
  val word : t -> Types.elf_class -> int -> unit

  val bytes : t -> string -> unit
  val zeros : t -> int -> unit

  (** Pad with zeros up to an absolute offset.
      @raise Invalid_argument when already past it. *)
  val pad_to : t -> int -> unit
end

module Reader : sig
  type t

  val create : endian:Types.endian -> string -> t
  val u8 : t -> int -> int
  val u16 : t -> int -> int
  val u32 : t -> int -> int
  val u64 : t -> int -> int
  val word : t -> Types.elf_class -> int -> int
  val word_size : Types.elf_class -> int
  val sub : t -> int -> int -> string

  (** NUL-terminated string starting at the offset.
      @raise Truncated when unterminated or out of bounds. *)
  val cstring : t -> int -> string
end
