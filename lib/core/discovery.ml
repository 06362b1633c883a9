(* The Environment Discovery Component's output record: the information
   paper Figure 4 lists — ISA format, operating system, C library
   version, available/loaded MPI stacks. *)

open Feam_util
open Feam_mpi

type via = Modules | Softenv | Path_search

type discovered_stack = {
  slug : string; (* "openmpi-1.4.3-intel" *)
  impl : Impl.t;
  impl_version : Version.t option;
  compiler_family : Compiler.family option;
  discovered_via : via;
}

type t = {
  env_type : [ `Target | `Guaranteed ];
  machine : Feam_elf.Types.machine option;
  elf_class : Feam_elf.Types.elf_class option;
  os : string option;          (* distribution, informational *)
  kernel : string option;      (* from /proc/version *)
  glibc : Version.t option;
  stacks : discovered_stack list;
  current_stack : discovered_stack option;
}

let via_to_string = function
  | Modules -> "Environment Modules"
  | Softenv -> "SoftEnv"
  | Path_search -> "path search"

(* Machine-readable discovery-method slugs (journal serialization). *)
let via_slug = function
  | Modules -> "modules"
  | Softenv -> "softenv"
  | Path_search -> "path-search"

let via_of_slug = function
  | "modules" -> Some Modules
  | "softenv" -> Some Softenv
  | "path-search" -> Some Path_search
  | _ -> None

(* Parse a stack slug of the conventional "impl-version-compiler" shape.
   Real sites reveal stacks through exactly such naming (paper §V.B:
   "/opt/openmpi-1.4.3-intel/lib/libmpi.so reveals that Open MPI is
   available for the Intel compiler"). *)
let parse_stack_slug ~via slug =
  match String.split_on_char '-' slug with
  | impl_slug :: rest -> (
    match Impl.of_slug impl_slug with
    | None -> None
    | Some impl ->
      let impl_version, compiler_family =
        match rest with
        | [ v; c ] -> (Version.of_string v, Compiler.family_of_slug c)
        | [ x ] -> (
          (* either a bare version or a bare compiler *)
          match Version.of_string x with
          | Some v -> (Some v, None)
          | None -> (None, Compiler.family_of_slug x))
        | _ -> (None, None)
      in
      Some { slug; impl; impl_version; compiler_family; discovered_via = via })
  | [] -> None

(* JSON round-trip for the flight recorder's journal: stacks are
   stored as slug + discovery method and re-derived through
   [parse_stack_slug] on load, mirroring the bundle format. *)

let stack_to_json s =
  Json.Obj
    [ ("slug", Json.Str s.slug); ("via", Json.Str (via_slug s.discovered_via)) ]

let stack_of_json json =
  let str key = Json.str_field key json in
  match str "slug" with
  | None -> None
  | Some slug ->
    let via =
      match Option.bind (str "via") via_of_slug with
      | Some via -> via
      | None -> Modules
    in
    parse_stack_slug ~via slug

let to_json t =
  let open Json in
  let opt f = function None -> Null | Some v -> Str (f v) in
  Obj
    [
      ( "env_type",
        Str (match t.env_type with `Target -> "target" | `Guaranteed -> "guaranteed") );
      ("machine", opt Feam_elf.Types.machine_uname t.machine);
      ("os", opt Fun.id t.os);
      ("kernel", opt Fun.id t.kernel);
      ("glibc", opt Version.to_string t.glibc);
      ("stacks", List (List.map stack_to_json t.stacks));
      ( "current_stack",
        match t.current_stack with None -> Null | Some s -> stack_to_json s );
    ]

let of_json json =
  let str key = Json.str_field key json in
  let machine = Option.bind (str "machine") Feam_elf.Types.machine_of_uname in
  Ok
    {
      env_type =
        (match str "env_type" with
        | Some "guaranteed" -> `Guaranteed
        | _ -> `Target);
      machine;
      elf_class = Option.map Feam_elf.Types.machine_class machine;
      os = str "os";
      kernel = str "kernel";
      glibc = Option.bind (str "glibc") Version.of_string;
      stacks =
        List.filter_map stack_of_json
          (Option.value (Json.list_field "stacks" json) ~default:[]);
      current_stack = Option.bind (Json.member "current_stack" json) stack_of_json;
    }

let pp_stack ppf s =
  Fmt.pf ppf "%s [%s%s, via %s]" (Impl.name s.impl)
    (match s.impl_version with
    | Some v -> "v" ^ Version.to_string v
    | None -> "version unknown")
    (match s.compiler_family with
    | Some f -> ", " ^ Compiler.family_name f
    | None -> "")
    (via_to_string s.discovered_via)

let pp ppf t =
  Fmt.pf ppf
    "@[<v>environment: %s@ ISA: %a@ OS: %a@ kernel: %a@ C library: %a@ MPI \
     stacks: %a@ loaded stack: %a@]"
    (match t.env_type with `Target -> "target site" | `Guaranteed -> "guaranteed execution site")
    Fmt.(option ~none:(any "unknown") (using Feam_elf.Types.machine_uname string))
    t.machine
    Fmt.(option ~none:(any "unknown") string)
    t.os
    Fmt.(option ~none:(any "unknown") string)
    t.kernel
    Fmt.(option ~none:(any "unknown") (using Version.to_string string))
    t.glibc
    Fmt.(list ~sep:(any "; ") pp_stack)
    t.stacks
    Fmt.(option ~none:(any "none") pp_stack)
    t.current_stack
