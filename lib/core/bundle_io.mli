(** Serialization of source-phase bundles: the artifact the user copies
    from the guaranteed execution environment to each target site
    (paper §V).

    Line-oriented text container with base64-embedded ELF images.
    Derived description fields (required C library version, MPI
    identification) are recomputed on load from the stored primitives. *)

(** First line of every bundle artifact. *)
val magic : string

(** First line of every depot-backed manifest artifact. *)
val manifest_magic : string

type parse_error = { line : int; message : string }

val parse_error_to_string : parse_error -> string

(** What makes an entry name unsafe to load: [Duplicate] names collide
    in the staging directory, [Traversal] names ([".."] components)
    escape it. *)
type entry_issue = Duplicate | Traversal

type load_error =
  | Syntax of parse_error
  | Malformed of string
  | Unsafe_entry of { section : string; name : string; issue : entry_issue }

val load_error_to_string : load_error -> string

(** Does this entry name contain a [".."] path component? *)
val name_traverses : string -> bool

(** Serialize a bundle to its textual artifact. *)
val render : Bundle.t -> string

(** Read a bundle artifact back, rejecting duplicate and
    path-traversing entry names with a typed error. *)
val parse_checked : string -> (Bundle.t, load_error) result

(** {!parse_checked} with errors rendered to strings. *)
val parse : string -> (Bundle.t, string) result

(** Serialize a depot-backed manifest: the same container as a bundle,
    but payloads are [object:] content keys instead of embedded
    [data:]. *)
val render_manifest : Bundle_manifest.t -> string

(** Read a manifest artifact back, with the same entry-name safety
    checks as {!parse_checked} and errors rendered to strings. *)
val parse_manifest : string -> (Bundle_manifest.t, string) result
