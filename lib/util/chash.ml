(* The content hash: a deterministic function of the payload bytes and
   nothing else.  Two captures of the same library image — from
   different paths, sites, or times — always produce the same key,
   which is what makes the depot content-addressed and the transfer
   planner's dedup sound.  Live ELF images get their key through their
   [Feam_elf.Reader.image] handle, which computes it once per handle.

   The hash is a domain-separated MD5 over the raw bytes: MD5 is in the
   OCaml standard library, stable across platforms, and collision
   resistance against adversaries is not a goal here (the depot stores
   our own captures; the key is an identity, not a signature).  The
   domain prefix pins the definition so a future algorithm change can
   coexist under a new prefix without silently aliasing old keys. *)

type t = string (* 32 lowercase hex characters *)

let domain = "feam.depot.v1\x00"

let of_bytes bytes = Digest.to_hex (Digest.string (domain ^ bytes))

let to_hex t = t

let is_hex_char = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let of_hex s =
  if String.length s = 32 && String.for_all is_hex_char s then Some s else None

(* Leading digits, for display: long enough to be unique in any
   realistic store, short enough for a table column. *)
let short t = String.sub t 0 12

let compare = String.compare
