(* Environment Discovery Component (paper §V.B).

   Gathers information about a computing environment: ISA via uname,
   OS via /proc/version and /etc/*release, the C library version by
   running the C library binary (falling back to its API, here its
   version definitions), and the available/loaded MPI stacks via the
   user-environment management tools with a path-search fallback. *)

open Feam_util
open Feam_sysmodel

(* -- ISA ----------------------------------------------------------------- *)

let discover_isa ?clock site =
  match Utilities.uname_p ?clock site with
  | Ok uname -> Feam_elf.Types.machine_of_uname uname
  | Error _ -> None

(* -- OS ------------------------------------------------------------------ *)

let discover_os ?clock site =
  (* /etc/*release confirmed against /proc/version (paper §V.B). *)
  match Utilities.etc_release ?clock site with
  | (_, body) :: _ -> Some (String.trim (List.hd (String.split_on_char '\n' body)))
  | [] -> None

let discover_kernel ?clock site =
  let text = Utilities.proc_version ?clock site in
  (* "Linux version 2.6.18-194.el5 (...)" *)
  match String.split_on_char ' ' text with
  | "Linux" :: "version" :: v :: _ -> Some v
  | _ -> None

(* -- C library ------------------------------------------------------------ *)

(* Parse the banner printed when the C library binary is executed:
   "GNU C Library stable release version 2.5, by Roland McGrath..." *)
let parse_glibc_banner banner =
  let tokens =
    String.split_on_char '\n' banner
    |> List.concat_map (String.split_on_char ' ')
  in
  let rec after_version = function
    | "version" :: v :: _ ->
      let v =
        if String.length v > 0 && v.[String.length v - 1] = ',' then
          String.sub v 0 (String.length v - 1)
        else v
      in
      Version.of_string v
    | _ :: rest -> after_version rest
    | [] -> None
  in
  after_version tokens

(* Fallback: "determine the version using the C library API" — read the
   newest version definition out of the installed libc image. *)
let glibc_via_api site path =
  match Vfs.find (Site.vfs site) path with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } -> (
    match Feam_elf.Reader.parse bytes with
    | Ok parsed ->
      (Feam_elf.Reader.spec parsed).Feam_elf.Spec.verdefs
      |> List.filter_map Feam_toolchain.Glibc.version_of_symbol
      |> List.fold_left
           (fun acc v ->
             match acc with None -> Some v | Some a -> Some (Version.max a v))
           None
    | Error _ -> None)
  | _ -> None

let discover_glibc ?clock site =
  match Utilities.find_libc ?clock site with
  | None -> None
  | Some path -> (
    (* Running the C library binary prints its banner; if it cannot be
       run (e.g. foreign format), fall back to the API. *)
    match parse_glibc_banner (Utilities.glibc_banner ?clock site) with
    | Some v -> Some v
    | None -> glibc_via_api site path)

(* -- MPI stacks ------------------------------------------------------------ *)

(* Discovery through the user-environment management tools. *)
let stacks_via_modules ?clock site =
  Cost.charge clock Cost.module_query;
  match Modules_tool.render_avail site with
  | None -> None
  | Some listing ->
    let via =
      match Site.modules_flavor site with
      | Site.Softenv -> Discovery.Softenv
      | _ -> Discovery.Modules
    in
    let names =
      String.split_on_char '\n' listing
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"---" l))
      |> List.map (fun l ->
             if String.length l > 0 && l.[0] = '+' then
               String.sub l 1 (String.length l - 1)
             else l)
    in
    Some (List.filter_map (Discovery.parse_stack_slug ~via) names)

(* Fallback: search for MPI libraries and wrappers in the filesystem and
   parse stack identity out of path naming (paper §V.B). *)
let stacks_via_path_search ?clock site =
  let candidates =
    match Utilities.locate ?clock site "libmpi" with
    | Ok paths -> paths
    | Error _ -> (
      match
        Utilities.find_in_dirs ?clock site
          ([ "/opt"; "/usr/local" ] @ Site.default_lib_dirs site)
          "libmpi"
      with
      | Ok paths -> paths
      | Error _ -> [])
  in
  candidates
  |> List.filter_map (fun path ->
         (* "/opt/openmpi-1.4.3-intel/lib/libmpi.so.0" -> slug component *)
         match String.split_on_char '/' path with
         | "" :: "opt" :: slug :: _ ->
           Discovery.parse_stack_slug ~via:Discovery.Path_search slug
         | _ -> None)
  |> List.sort_uniq (fun a b -> String.compare a.Discovery.slug b.Discovery.slug)

(* Available stacks: user-environment management tools first, path
   search as fallback. *)
let discover_stacks ?clock site =
  match stacks_via_modules ?clock site with
  | Some (_ :: _ as stacks) -> stacks
  | Some [] | None -> stacks_via_path_search ?clock site

(* Currently loaded stack: module list first, PATH inspection second. *)
let discover_current_stack ?clock site env =
  Cost.charge clock Cost.module_query;
  match Modules_tool.current_stack site env with
  | None -> None
  | Some install ->
    let slug = Stack_install.module_name install in
    Discovery.parse_stack_slug ~via:Discovery.Modules slug

(* -- Missing shared libraries (for a given binary's needs) ---------------- *)

(* ldd when usable; otherwise search for each name (paper §V.B). *)
let missing_libraries ?clock site env ~binary_path ~needed =
  match Feam_dynlinker.Ldd.run ?clock site env binary_path with
  | Ok resolution -> Feam_dynlinker.Ldd.missing_libraries resolution
  | Error _ ->
    needed
    |> List.filter (fun name -> Bdc.locate_library ?clock site env name = None)

(* -- Full discovery -------------------------------------------------------- *)

let discover ?clock ~env_type site env =
  let env_label =
    match env_type with `Guaranteed -> "guaranteed" | `Target -> "target"
  in
  Feam_obs.Ledger.with_stage "edc.discover" @@ fun () ->
  Feam_obs.Prof.with_timer ~labels:[ ("env", env_label) ] "edc.discover"
  @@ fun () ->
  Feam_obs.Trace.with_span "edc.discover"
    ~attrs:
      [
        ("site", Feam_obs.Span.Str (Site.name site));
        ("env", Feam_obs.Span.Str env_label);
      ]
  @@ fun () ->
  (* Each discovered environment fact is journaled as evidence where it
     was found, inside its own sub-span. *)
  let sub name f = Feam_obs.Trace.with_span name f in
  let fact kind value =
    Feam_flightrec.Recorder.evidence ~stage:"edc" ~kind
      [
        ("env", Json.Str env_label);
        ("value", match value with Some v -> Json.Str v | None -> Json.Null);
      ]
  in
  let machine =
    sub "edc.isa" (fun () ->
        let m = discover_isa ?clock site in
        fact "isa" (Option.map Feam_elf.Types.machine_uname m);
        m)
  in
  let os =
    sub "edc.os" (fun () ->
        let os = discover_os ?clock site in
        fact "os" os;
        os)
  in
  let kernel =
    sub "edc.kernel" (fun () ->
        let k = discover_kernel ?clock site in
        fact "kernel" k;
        k)
  in
  let glibc =
    sub "edc.glibc" (fun () ->
        let g = discover_glibc ?clock site in
        fact "glibc" (Option.map Version.to_string g);
        g)
  in
  let stacks =
    sub "edc.stacks" (fun () ->
        let stacks = discover_stacks ?clock site in
        Feam_flightrec.Recorder.evidence ~stage:"edc" ~kind:"stacks"
          [
            ("env", Json.Str env_label);
            ( "value",
              Json.List
                (List.map (fun s -> Json.Str s.Discovery.slug) stacks) );
          ];
        stacks)
  in
  let current_stack =
    sub "edc.current_stack" (fun () ->
        let c = discover_current_stack ?clock site env in
        fact "current_stack" (Option.map (fun s -> s.Discovery.slug) c);
        c)
  in
  Feam_obs.Metrics.incr "edc.discoveries" ~labels:[ ("env", env_label) ];
  Feam_obs.Trace.set_attr "stacks" (Feam_obs.Span.Int (List.length stacks));
  {
    Discovery.env_type;
    machine;
    elf_class = Option.map Feam_elf.Types.machine_class machine;
    os;
    kernel;
    glibc;
    stacks;
    current_stack;
  }
