(* Endian-aware byte codecs used by the ELF builder and reader. *)

exception Truncated of string

module Writer = struct
  type t = { buf : Buffer.t; endian : Types.endian }

  let create ~size endian = { buf = Buffer.create size; endian }

  let length t = Buffer.length t.buf

  let contents t = Buffer.contents t.buf

  let u8 t v = Buffer.add_char t.buf (Char.unsafe_chr (v land 0xff))

  let u16 t v =
    match t.endian with
    | Types.LE -> Buffer.add_uint16_le t.buf (v land 0xffff)
    | Types.BE -> Buffer.add_uint16_be t.buf (v land 0xffff)

  (* [Int32.of_int] keeps the low 32 bits, as the masked value's. *)
  let u32 t v =
    let v = Int32.of_int (v land 0xffffffff) in
    match t.endian with
    | Types.LE -> Buffer.add_int32_le t.buf v
    | Types.BE -> Buffer.add_int32_be t.buf v

  let u64 t v =
    (* OCaml ints are 63-bit; file offsets here stay far below 2^62. *)
    match t.endian with
    | Types.LE ->
      u32 t v;
      u32 t (v lsr 32)
    | Types.BE ->
      u32 t (v lsr 32);
      u32 t v

  (* Class-dependent word: 32-bit field in ELF32, 64-bit in ELF64. *)
  let word t cls v =
    match cls with Types.C32 -> u32 t v | Types.C64 -> u64 t v

  let bytes t s = Buffer.add_string t.buf s

  let zeros t n = Buffer.add_string t.buf (String.make n '\000')

  let pad_to t off =
    let cur = length t in
    if cur > off then invalid_arg "Codec.Writer.pad_to: already past offset";
    zeros t (off - cur)
end

module Reader = struct
  type t = { data : string; endian : Types.endian }

  let create ~endian data = { data; endian }

  let check t off n =
    if off < 0 || n < 0 || off + n > String.length t.data then
      raise (Truncated (Printf.sprintf "read of %d bytes at offset %d (size %d)" n off (String.length t.data)))

  (* Each read checks its whole width first, so a short read fails with
     the width the field asked for, then reads with the stdlib's
     fixed-width primitives. *)
  let u8 t off =
    check t off 1;
    String.get_uint8 t.data off

  let u16 t off =
    check t off 2;
    match t.endian with
    | Types.LE -> String.get_uint16_le t.data off
    | Types.BE -> String.get_uint16_be t.data off

  let u32 t off =
    check t off 4;
    let v =
      match t.endian with
      | Types.LE -> String.get_int32_le t.data off
      | Types.BE -> String.get_int32_be t.data off
    in
    Int32.to_int v land 0xffff_ffff

  (* [Int64.to_int] keeps the low 63 bits; offsets and sizes in an image
     stay far below 2^62. *)
  let u64 t off =
    check t off 8;
    Int64.to_int
      (match t.endian with
      | Types.LE -> String.get_int64_le t.data off
      | Types.BE -> String.get_int64_be t.data off)

  let word t cls off =
    match cls with Types.C32 -> u32 t off | Types.C64 -> u64 t off

  let word_size = function Types.C32 -> 4 | Types.C64 -> 8

  let sub t off n =
    check t off n;
    String.sub t.data off n

  (* NUL-terminated string starting at [off]. *)
  let cstring t off =
    check t off 0;
    match String.index_from_opt t.data off '\000' with
    | Some e -> String.sub t.data off (e - off)
    | None ->
      raise (Truncated (Printf.sprintf "unterminated string at offset %d" off))
end
