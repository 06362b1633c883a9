(** Serialization of source-phase bundles: the artifact the user copies
    from the guaranteed execution environment to each target site
    (paper §V), and of depot-backed manifests, which share its container.

    Line-oriented text container with base64-embedded ELF images.
    Derived description fields (required C library version, MPI
    identification) are recomputed on load from the stored primitives. *)

type parse_error = { line : int; message : string }

(** What makes an entry name unsafe to load: [Duplicate] names collide
    in the staging directory, [Traversal] names ([".."] components)
    escape it. *)
type entry_issue = Duplicate | Traversal

(** Why an artifact failed to load: [Syntax] for the line grammar and
    the magic line, [Malformed] for a missing or undecodable required
    field (the message names its section), [Unsafe_entry] for an entry
    name the staging directory cannot hold. *)
type load_error =
  | Syntax of parse_error
  | Malformed of string
  | Unsafe_entry of { section : string; name : string; issue : entry_issue }

val load_error_to_string : load_error -> string

(** Does this entry name contain a [".."] path component? *)
val name_traverses : string -> bool

(** Serialize a bundle to its textual artifact. *)
val render : Bundle.t -> string

(** Read a bundle artifact back.  Every field the renderer always
    writes is required: a missing or undecodable one is [Malformed],
    naming its section, as is an [object:] payload line.  Duplicate and
    path-traversing entry names are [Unsafe_entry]. *)
val parse : string -> (Bundle.t, load_error) result

(** Serialize a depot-backed manifest: the same container as a bundle,
    but payloads are [object:] content keys instead of embedded
    [data:]. *)
val render_manifest : Bundle_manifest.t -> string

(** Read a manifest artifact back under the same rules as {!parse}, with
    [data:] payload lines rejected. *)
val parse_manifest : string -> (Bundle_manifest.t, load_error) result
