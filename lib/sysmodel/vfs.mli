(** Virtual filesystem of a simulated computing site.

    Regular files (ELF images, scripts, plain text) and symlinks live
    under absolute, normalized paths; directories are implicit.  ELF
    contents are real bytes; [declared_size] carries the realistic
    on-disk size used for bundle accounting, independent of the metadata
    image's length. *)

type kind =
  | Elf of string  (** ELF image bytes *)
  | Script of string  (** executable text: wrappers, submission scripts *)
  | Text of string  (** /etc files, module files, ... *)
  | Symlink of string  (** absolute or relative target *)

type file = { kind : kind; declared_size : int }

type t

val create : unit -> t

val dirname : string -> string
val basename : string -> string

(** Add or replace a file.  [declared_size] defaults to the content
    length (ELF image size / text length). *)
val add : ?declared_size:int -> t -> string -> kind -> unit

(** [add_image t path image] adds the ELF file holding [image]'s bytes,
    its handle already in place for {!resolve_image}.  [declared_size]
    defaults to the image's length. *)
val add_image : ?declared_size:int -> t -> string -> Feam_elf.Reader.image -> unit

val remove : t -> string -> unit

(** [scoped t f] runs [f], then puts back every file [f] added, replaced
    or removed, newest change first, so [t] is left as [f] found it.  It
    does so also when [f] raises, and scopes nest: an inner scope undoes
    only its own changes.  Outside any scope writes are not logged.
    What goes back is the stored file with its image handle
    ({!resolve_image}), so a file put back parses from the handle it
    had before the scope. *)
val scoped : t -> (unit -> 'a) -> 'a

(** The number of writes made outside any {!scoped} scope: the changes
    that last.  Writes inside a scope leave it unchanged, since the
    scope undoes them. *)
val generation : t -> int

(** [written_in_scope t pred] is whether a write made in a {!scoped}
    scope that is still open was to a path satisfying [pred]: the
    changes {!generation} does not count.  False outside every scope. *)
val written_in_scope : t -> (string -> bool) -> bool

(** The normalized paths a lookup of [path] passes through, in order:
    [path] itself, then each symlink's target, as far as {!resolve}
    follows them.  A write to any of them can change the lookup. *)
val lookup_chain : t -> string -> string list

(** Resolve symlinks (bounded depth; cycles yield [None]); returns the
    real path and the file. *)
val resolve : ?depth:int -> t -> string -> (string * file) option

(** The directories a run of tracked lookups consulted, with the
    version each had then (DESIGN §21).  Every directory has a version:
    each write to a file in it moves it, inside a {!scoped} scope or
    outside one, and so does each undo a scope makes.  A version never
    repeats, so a directory whose version is the one a lookup saw holds
    exactly the files it held then. *)
type reads

(** An empty read set. *)
val reads : unit -> reads

(** Whether every directory in the read set still has the version the
    lookups saw. *)
val unchanged : reads -> bool

(** Like {!resolve}, for an ELF file: the real path and the file's image
    handle ({!Feam_elf.Reader.image}).  The handle is made on the first
    such read of the stored file and kept with it, so later reads parse
    and hash nothing; a write stores a new file, and with it a new
    handle.  [None] when the path resolves to nothing or to a file that
    is not ELF.  With [reads] the lookup is tracked: it adds to [reads]
    the directory of the path and of every symlink target it followed. *)
val resolve_image :
  ?reads:reads -> t -> string -> (string * Feam_elf.Reader.image) option

val find : t -> string -> file option

(** The file stored at [path] itself, without following a symlink:
    re-adding it with its kind and [declared_size] restores [path]
    exactly. *)
val entry : t -> string -> file option

val exists : t -> string -> bool

(** Declared size, as `du` would report for one file. *)
val file_size : t -> string -> int option

(** Paths whose basename satisfies the predicate. *)
val find_by_basename : t -> (string -> bool) -> string list

(** Paths under a directory whose basename satisfies the predicate
    (`find DIR -name`). *)
val find_under : t -> string -> (string -> bool) -> string list

(** Remove a whole subtree (`rm -rf`). *)
val remove_tree : t -> string -> unit
