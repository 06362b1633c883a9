(* Binary Description Component (paper §V.A).

   Gathers information about an application binary and its dependencies
   using the emulated system utilities, with the same fallback chain as
   the real implementation: objdump is primary; file(1), ldd and the
   locate/find searches cover sites where tools are missing.  At a
   guaranteed execution environment it additionally collects a copy and a
   description of every shared library the binary links against (except
   the C library), recursively over the dependency closure. *)

open Feam_util
open Feam_sysmodel

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
  unlocatable : string list; (* dependencies we failed to find for copying *)
}

let comment_provenance site path =
  match Utilities.readelf_comment site path with
  | Ok text ->
    Objdump_parse.provenance_of_comments (Objdump_parse.parse_readelf_comment text)
  | Error _ -> { Objdump_parse.compiler_banner = None; build_os = None }

(* Primary path: objdump -p.  Of the site it reads two tool flags,
   [Tools.objdump] (here) and [Tools.readelf] (in [comment_provenance]),
   and the image at [path]: the describe memo's key is those three. *)
let describe_via_objdump site path =
  Feam_obs.Trace.with_span "bdc.objdump_describe" @@ fun () ->
  match Utilities.objdump_p site path with
  | Error e -> Error (Utilities.error_to_string e)
  | Ok text -> (
    let parse_start = Feam_obs.Trace.now_ns () in
    let parsed = Objdump_parse.parse_objdump_p text in
    Feam_obs.Metrics.observe "bdc.objdump_parse_ns"
      (Int64.to_float (Int64.sub (Feam_obs.Trace.now_ns ()) parse_start));
    match parsed with
    | Error e ->
      Feam_obs.Metrics.incr "bdc.objdump_parse_failures";
      Error e
    | Ok info ->
      let provenance = comment_provenance site path in
      Description.of_dynamic_info ~path ~provenance info)

(* Fallback: file(1) for format/ISA, ldd -v for dependencies and version
   requirements (paper §V.A notes ldd "cannot be relied on to always
   provide this information" — it fails for foreign-architecture
   binaries, and then we must give up on those fields). *)
let describe_via_file_and_ldd ?closures site env path =
  match Utilities.file_cmd site path with
  | Error e -> Error (Utilities.error_to_string e)
  | Ok file_text ->
    if not (Str_split.contains ~sub:"ELF" file_text) then
      Error (path ^ ": not an ELF binary")
    else begin
      let machine_class =
        [
          ("Advanced Micro Devices X86-64", (Feam_elf.Types.X86_64, Feam_elf.Types.C64, "elf64-x86-64"));
          ("Intel 80386", (Feam_elf.Types.I386, Feam_elf.Types.C32, "elf32-i386"));
          ("PowerPC64", (Feam_elf.Types.PPC64, Feam_elf.Types.C64, "elf64-powerpc"));
          ("PowerPC", (Feam_elf.Types.PPC, Feam_elf.Types.C32, "elf32-powerpc"));
          ("Sparc v9", (Feam_elf.Types.SPARCV9, Feam_elf.Types.C64, "elf64-sparc"));
          ("Sparc", (Feam_elf.Types.SPARC, Feam_elf.Types.C32, "elf32-sparc"));
          ("Intel IA-64", (Feam_elf.Types.IA64, Feam_elf.Types.C64, "elf64-ia64-little"));
        ]
        |> List.find_opt (fun (tag, _) -> Str_split.contains ~sub:tag file_text)
      in
      match machine_class with
      | None -> Error (path ^ ": unrecognized ELF machine in file(1) output")
      | Some (_, (machine, elf_class, file_format)) ->
        let needed, verneeds =
          match Feam_dynlinker.Ldd.run ?closures site env path with
          | Ok resolution ->
            let root = resolution.Feam_dynlinker.Resolve.root_spec in
            ( root.Feam_elf.Spec.needed,
              List.map
                (fun vn ->
                  (vn.Feam_elf.Spec.vn_file, vn.Feam_elf.Spec.vn_versions))
                root.Feam_elf.Spec.verneeds )
          | Error _ -> ([], [])
        in
        let provenance = comment_provenance site path in
        Ok
          {
            Description.path;
            file_format;
            machine;
            elf_class;
            soname = None; (* not recoverable without objdump *)
            needed;
            rpath = None;
            runpath = None;
            verneeds;
            required_glibc = Description.required_glibc_of_verneeds verneeds;
            mpi = Mpi_ident.identify needed;
            provenance;
          }
    end

(* -- describe memo --------------------------------------------------- *)

(* Within an evaluation pass the same image is described at many sites:
   a library at every home that links it, a binary at its home and
   staged at each target.  The objdump path reads the image and the
   site's objdump and readelf flags, nothing else, so identical bytes
   at sites whose two flags agree describe identically up to the path
   field.  A pass carries one memo ([Eval_ctx.describe_memo]) keyed by
   (objdump flag, readelf flag, content key), the key read through the
   file's image handle so a hit hashes nothing; only objdump-path
   successes are cached, so tool-fallback behaviour is untouched.  An
   entry keeps the effect tape of the work it took over and a hit
   replays it, as a pass-memo hit does, so a clock reads the same with
   a memo or without. *)

(* The memo [describe] reads when its caller passes none: unset unless
   the benchmark harness installs one through the two shims below. *)
let default_memo : Eval_ctx.describe_memo option ref = ref None

let set_describe_memo () =
  default_memo := Some (Eval_ctx.create_describe_memo ())

let clear_describe_memo () = default_memo := None

(* Returns the memo key plus the image size, so a hit can credit the
   bytes the cache avoided re-reading to the cache telemetry. *)
let memo_key_of site path =
  match Vfs.resolve_image (Site.vfs site) path with
  | Some (_, image) ->
    let tools = Site.tools site in
    Some
      ( ( tools.Tools.objdump,
          tools.Tools.readelf,
          Feam_elf.Reader.image_key image ),
        String.length (Feam_elf.Reader.image_bytes image) )
  | None -> None

(* [describe ?ctx site env ~path] — full description with
   fallbacks, through the context's describe memo (else the default
   one) and its closure memo. *)
let describe ?ctx site env ~path =
  Feam_obs.Ledger.with_stage "bdc.describe" @@ fun () ->
  Feam_obs.Prof.with_timer "bdc.describe" @@ fun () ->
  Feam_obs.Trace.with_span "bdc.describe"
    ~attrs:[ ("path", Feam_obs.Span.Str path) ]
  @@ fun () ->
  let journal_describe method_ (d : Description.t) =
    Feam_flightrec.Recorder.evidence ~stage:"bdc" ~kind:"describe"
      (fun () ->
        [
          ("path", Json.Str path);
          ("method", Json.Str method_);
          ("format", Json.Str d.Description.file_format);
          ( "needed",
            Json.List (List.map (fun n -> Json.Str n) d.Description.needed) );
          ( "required_glibc",
            match d.Description.required_glibc with
            | Some v -> Json.Str (Version.to_string v)
            | None -> Json.Null );
        ])
  in
  let memo =
    match Option.bind ctx (fun c -> c.Eval_ctx.describe) with
    | Some _ as memo -> memo
    | None -> !default_memo
  in
  let memo_key =
    match memo with Some _ -> memo_key_of site path | None -> None
  in
  let cached =
    match (memo_key, memo) with
    | Some (key, _), Some tbl -> Hashtbl.find_opt tbl key
    | _ -> None
  in
  match cached with
  | Some tape ->
    Feam_obs.Metrics.incr "bdc.describe_cache.hit";
    (match memo_key with
    | Some (_, size) ->
      Feam_obs.Metrics.incr ~by:size "bdc.describe_cache.saved_bytes"
    | None -> ());
    let d = { (Pass_memo.replay tape) with Description.path } in
    (* Only objdump results are cached: a hit journals what the miss did,
       so a journal does not depend on what ran before it. *)
    journal_describe "objdump" d;
    Ok d
  | None -> (
    let objdump () = describe_via_objdump site path in
    let via_objdump, keep =
      match (memo_key, memo) with
      | Some (key, _), Some tbl ->
        Feam_obs.Metrics.incr "bdc.describe_cache.miss";
        let tape = Pass_memo.record objdump in
        (tape.value, fun d -> Hashtbl.replace tbl key { tape with value = d })
      | _ -> (objdump (), ignore)
    in
    match via_objdump with
    | Ok d ->
      Feam_obs.Metrics.incr "bdc.describe" ~labels:[ ("method", "objdump") ];
      journal_describe "objdump" d;
      keep d;
      Ok d
    | Error _ ->
      Feam_obs.Metrics.incr "bdc.describe" ~labels:[ ("method", "file_ldd") ];
      Feam_obs.Trace.with_span "bdc.file_ldd_describe" @@ fun () ->
      let r =
        describe_via_file_and_ldd ?closures:(Eval_ctx.closures ctx)
          site env path
      in
      Result.iter (journal_describe "file_ldd") r;
      r)

(* -- Library location (paper §V.A, three search methods) --------------- *)

let is_c_library name =
  match Soname.of_string name with
  | Some s -> Soname.base s = "libc" || Soname.base s = "ld-linux"
  | None -> false

(* Locate one dependency by name using locate(1), then find(1) over the
   common library locations and LD_LIBRARY_PATH. *)
let locate_library site env name =
  Feam_obs.Trace.with_span "bdc.locate_library"
    ~attrs:[ ("library", Feam_obs.Span.Str name) ]
  @@ fun () ->
  let pick paths =
    (* Prefer an exact basename match; ignore .so dev symlinks. *)
    paths
    |> List.filter (fun p -> Vfs.basename p = name)
    |> fun l -> List.nth_opt l 0
  in
  let via_locate () =
    match Utilities.locate site name with
    | Ok paths -> pick paths
    | Error _ -> None
  in
  let via_find () =
    let dirs =
      Site.default_lib_dirs site @ Env.ld_library_path env
      @ Site.ld_conf_dirs site
    in
    match Utilities.find_in_dirs site dirs name with
    | Ok paths -> pick paths
    | Error _ -> None
  in
  let journal_locate method_ found =
    Feam_flightrec.Recorder.evidence ~stage:"bdc" ~kind:"locate"
      (fun () ->
        [
          ("library", Json.Str name);
          ("method", Json.Str method_);
          ("path", match found with Some p -> Json.Str p | None -> Json.Null);
        ])
  in
  match via_locate () with
  | Some p ->
    Feam_obs.Trace.set_attr "method" (Feam_obs.Span.Str "locate");
    journal_locate "locate" (Some p);
    Some p
  | None -> (
    match via_find () with
    | Some p ->
      Feam_obs.Trace.set_attr "method" (Feam_obs.Span.Str "find");
      journal_locate "find" (Some p);
      Some p
    | None ->
      Feam_obs.Metrics.incr "bdc.locate_failures";
      journal_locate "none" None;
      None)

(* Paths of the binary's shared libraries at a guaranteed site: ldd when
   it works, per-name searches otherwise. *)
let dependency_paths ?closures site env ~path ~needed =
  Feam_obs.Trace.with_span "bdc.dependency_paths" @@ fun () ->
  match Feam_dynlinker.Ldd.run ?closures site env path with
  | Ok resolution ->
    let from_ldd =
      resolution.Feam_dynlinker.Resolve.resolved
      |> List.map (fun r ->
             (r.Feam_dynlinker.Resolve.lib_name, Some r.Feam_dynlinker.Resolve.lib_path))
    in
    let missing =
      resolution.Feam_dynlinker.Resolve.missing |> List.map (fun m -> (m, None))
    in
    from_ldd @ missing
  | Error _ ->
    (* ldd unusable: search for each direct dependency by name, then
       recurse through discovered libraries' own dependencies. *)
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    let rec visit name =
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        let found = locate_library site env name in
        acc := (name, found) :: !acc;
        match found with
        | None -> ()
        | Some p -> (
          match describe_via_objdump site p with
          | Ok d -> List.iter visit d.Description.needed
          | Error _ -> ())
      end
    in
    List.iter visit needed;
    List.rev !acc

(* [gather_source ?ctx site env ~path] — the source phase's BDC run:
   describe the binary, then copy and describe every shared library in
   its dependency closure except the C library. *)
let gather_source ?ctx site env ~path =
  Feam_obs.Trace.with_span "bdc.gather_source"
    ~attrs:[ ("path", Feam_obs.Span.Str path) ]
  @@ fun () ->
  match describe ?ctx site env ~path with
  | Error e -> Error e
  | Ok binary_description ->
    let deps =
      dependency_paths ?closures:(Eval_ctx.closures ctx) site env ~path
        ~needed:binary_description.Description.needed
    in
    let copies = ref [] in
    let unlocatable = ref [] in
    List.iter
      (fun (name, found) ->
        if not (is_c_library name) then
          match found with
          | None -> unlocatable := name :: !unlocatable
          | Some origin -> (
            let vfs = Site.vfs site in
            match (Vfs.resolve_image vfs origin, Vfs.file_size vfs origin) with
            | Some (_, image), Some declared_size -> (
              Cost.charge
                (Cost.copy_per_mb *. (float_of_int declared_size /. 1048576.0));
              match describe ?ctx site env ~path:origin with
              | Ok copy_description ->
                Feam_obs.Trace.event "copy"
                  ~attrs:
                    [
                      ("library", Feam_obs.Span.Str name);
                      ("origin", Feam_obs.Span.Str origin);
                    ];
                Feam_flightrec.Recorder.evidence ~stage:"bdc" ~kind:"copy"
                  (fun () ->
                    [
                      ("library", Json.Str name);
                      ("origin", Json.Str origin);
                      ("declared_size", Json.Int declared_size);
                    ]);
                copies :=
                  {
                    copy_request = name;
                    copy_origin_path = origin;
                    copy_image = image;
                    copy_declared_size = declared_size;
                    copy_description;
                  }
                  :: !copies
              | Error _ -> unlocatable := name :: !unlocatable)
            | _ -> unlocatable := name :: !unlocatable))
      deps;
    Feam_obs.Metrics.incr ~by:(List.length !copies) "bdc.library_copies";
    Feam_obs.Metrics.incr ~by:(List.length !unlocatable) "bdc.unlocatable";
    Feam_obs.Trace.set_attr "copies" (Feam_obs.Span.Int (List.length !copies));
    Feam_obs.Trace.set_attr "unlocatable"
      (Feam_obs.Span.Int (List.length !unlocatable));
    Ok
      {
        binary_description;
        copies = List.rev !copies;
        unlocatable = List.rev !unlocatable;
      }
