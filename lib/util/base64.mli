(** RFC 4648 base64, used to embed binary ELF images in the textual
    bundle format. *)

val encode : string -> string

type error = Bad_length | Bad_character of char

val error_to_string : error -> string
val decode : string -> (string, error) result
