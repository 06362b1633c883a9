(** The source phase's output (paper §V): the binary's description,
    optionally the binary itself, copies of its shared libraries,
    hello-world probes compiled with the binary's stack, and the
    guaranteed environment's discovery record — bundled for transfer to
    target sites. *)

(** One shared library copied at the guaranteed site; {!Bdc} gathers
    them. *)
type library_copy = {
  copy_request : string;  (** the DT_NEEDED name this copy satisfies *)
  copy_origin_path : string;  (** where it was found at the guaranteed site *)
  copy_image : Feam_elf.Reader.image;
      (** the library image itself, by its handle: a copy keys and
          parses without hashing its bytes again *)
  copy_declared_size : int;  (** on-disk size, for bundle accounting *)
  copy_description : Description.t;
}

type probe = {
  probe_name : string;
  probe_image : Feam_elf.Reader.image;
      (** ELF image compiled at the guaranteed site, by its handle *)
  probe_stack_slug : string;  (** the stack it was compiled with *)
  probe_declared_size : int;
}

type t = {
  created_at : string;  (** guaranteed site name *)
  binary_description : Description.t;
  binary_image : Feam_elf.Reader.image option;
      (** the application binary, by the handle its file keeps *)
  binary_declared_size : int;
  copies : library_copy list;
  unlocatable : string list;
  probes : probe list;
  source_discovery : Discovery.t;
}

(** Size of the shared-library part of the bundle in bytes — the figure
    the paper reports averaging 45 MB per site (§VI.C). *)
val library_bytes : t -> int

(** Total bundle size, including the binary and probes. *)
val total_bytes : t -> int

(** Copies that can satisfy a given DT_NEEDED name, applying the soname
    compatibility convention (§III.D). *)
val copies_for : t -> string -> library_copy list

(** Merged size of several bundles' distinct library copies (the
    evaluation's per-site bundles). *)
val merged_library_bytes : t list -> int
