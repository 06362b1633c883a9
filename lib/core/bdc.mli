(** Binary Description Component (paper §V.A).

    Gathers information about an application binary and its dependencies
    through the emulated system utilities, with the real implementation's
    fallback chain: objdump is primary; file(1), ldd and locate/find
    searches cover sites with missing tools.  At a guaranteed execution
    environment it additionally collects a copy and description of every
    shared library in the binary's dependency closure (except the C
    library). *)

type library_copy = {
  copy_request : string;  (** the DT_NEEDED name this copy satisfies *)
  copy_origin_path : string;  (** where it was found at the guaranteed site *)
  copy_image : Feam_elf.Reader.image;
      (** the library image itself, by its handle: a copy keys and
          parses without hashing its bytes again *)
  copy_declared_size : int;  (** on-disk size, for bundle accounting *)
  copy_description : Description.t;
}

type source_output = {
  binary_description : Description.t;
  copies : library_copy list;
  unlocatable : string list;
      (** dependencies that could not be found for copying *)
}

(** Is this DT_NEEDED name the C library (or the dynamic loader), which
    is never copied (paper §V.A)? *)
val is_c_library : string -> bool

(** Locate one dependency by name: locate(1), then find(1) over the
    common library locations and LD_LIBRARY_PATH (paper §V.A). *)
val locate_library :
  ?clock:Feam_util.Sim_clock.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  string ->
  string option

(** The describe memo of one evaluation pass ({!Eval_ctx}): successful
    objdump descriptions keyed by (site name, content key of the
    image), so the same library image described at the same site many
    times is parsed once.  An entry keeps the clock charges of the miss
    and a hit replays them, so a pass charges its clock as a pass with
    no memo would.  Hit/miss counts surface as
    [bdc.describe_cache.hit] / [.miss].  Fallback-path (file/ldd)
    results are never cached, so a hit journals its method as
    [objdump], as the miss did. *)
type memo

val create_memo : unit -> memo

(** Benchmark-harness shims: install a fresh default memo, which
    {!describe} and {!gather_source} read when passed none, or drop it.
    Library code passes its pass's memo instead and never calls
    these. *)
val set_describe_memo : unit -> unit

val clear_describe_memo : unit -> unit

(** Describe a binary, with fallbacks for missing tools, through [memo]
    when given. *)
val describe :
  ?clock:Feam_util.Sim_clock.t ->
  ?memo:memo ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  path:string ->
  (Description.t, string) result

(** The source phase's BDC run: describe the binary, then copy and
    describe its dependency closure, every description through
    [memo] when given. *)
val gather_source :
  ?clock:Feam_util.Sim_clock.t ->
  ?memo:memo ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  path:string ->
  (source_output, string) result
