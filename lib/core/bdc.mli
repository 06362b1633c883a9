(** Binary Description Component (paper §V.A).

    Gathers information about an application binary and its dependencies
    through the emulated system utilities, with the real implementation's
    fallback chain: objdump is primary; file(1), ldd and locate/find
    searches cover sites with missing tools.  At a guaranteed execution
    environment it additionally collects a copy and description of every
    shared library in the binary's dependency closure (except the C
    library). *)

(** A shared library copied for the bundle ({!Bundle.library_copy}). *)
type library_copy = Bundle.library_copy = {
  copy_request : string;
  copy_origin_path : string;
  copy_image : Feam_elf.Reader.image;
  copy_declared_size : int;
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
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  string ->
  string option

(** Benchmark-harness shims: install a fresh default memo, which
    {!describe} and {!gather_source} read when passed none, or drop it.
    Library code passes its pass's memo instead and never calls
    these. *)
val set_describe_memo : unit -> unit

val clear_describe_memo : unit -> unit

(** Describe a binary, with fallbacks for missing tools.  An objdump
    description goes through [ctx]'s describe memo
    ({!Eval_ctx.describe_memo}), else the default one; the file/ldd
    fallback's ldd resolves through [ctx]'s closure memo, if any. *)
val describe :
  ?ctx:Eval_ctx.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  path:string ->
  (Description.t, string) result

(** The source phase's BDC run: describe the binary, then copy and
    describe its dependency closure, every description and the ldd
    walk of the closure through [ctx]'s caches, as {!describe}. *)
val gather_source :
  ?ctx:Eval_ctx.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  path:string ->
  (source_output, string) result
