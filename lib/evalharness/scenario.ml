(* Scenario files: a small text format describing a world of sites, so
   CLI users can model their own environments instead of the built-in
   demo/eval worlds.

   Format (one directive per line, '#' comments):

     site ranger
       machine x86_64
       distro centos 4.9 kernel 2.6.9
       glibc 2.3.4
       interconnect infiniband
       compiler gnu 3.4.6
       compiler intel 10.1
       stack openmpi 1.3 intel
       stack mvapich2 1.2 gnu
       modules environment-modules
       queue development 20
       queue normal 600
       faults none

   Every `site` line opens a new site block; directives apply to the
   current block.  Sites are provisioned on build. *)

open Feam_util
open Feam_mpi
open Feam_sysmodel

type site_spec = {
  mutable s_name : string;
  mutable s_machine : Feam_elf.Types.machine;
  mutable s_distro : Distro.flavor;
  mutable s_distro_version : Version.t;
  mutable s_kernel : Version.t;
  mutable s_glibc : Version.t;
  mutable s_interconnect : Interconnect.t;
  mutable s_compilers : Compiler.t list;
  mutable s_stacks : Stack.t list;
  mutable s_modules : Site.modules_flavor;
  mutable s_queues : Batch.queue list;
  mutable s_faults : Fault_model.t;
  mutable s_seed : int;
}

let fresh_spec name =
  {
    s_name = name;
    s_machine = Feam_elf.Types.X86_64;
    s_distro = Distro.Centos;
    s_distro_version = Version.of_string_exn "5.6";
    s_kernel = Version.of_string_exn "2.6.18";
    s_glibc = Version.of_string_exn "2.5";
    s_interconnect = Interconnect.Ethernet;
    s_compilers = [];
    s_stacks = [];
    s_modules = Site.Environment_modules;
    s_queues = [];
    s_faults = Fault_model.none;
    s_seed = 11;
  }

type parse_error = { line : int; message : string }

let parse_error_to_string e =
  Printf.sprintf "scenario parse error at line %d: %s" e.line e.message

let parse_version lineno what s =
  match Version.of_string s with
  | Some v -> v
  | None -> raise (Failure (Printf.sprintf "line %d: bad %s version %S" lineno what s))

(* Parse the scenario text into site specs. *)
let parse (text : string) : (site_spec list, parse_error) result =
  let lines = String.split_on_char '\n' text in
  let sites = ref [] in
  let current : site_spec option ref = ref None in
  let fail lineno message = raise (Failure (Printf.sprintf "line %d: %s" lineno message)) in
  let need lineno =
    match !current with
    | Some s -> s
    | None -> fail lineno "directive outside a site block (start with 'site NAME')"
  in
  try
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then ()
        else
          match
            String.split_on_char ' ' line |> List.filter (( <> ) "")
          with
          | [ "site"; name ] ->
            let spec = fresh_spec name in
            sites := spec :: !sites;
            current := Some spec
          | [ "machine"; m ] -> (
            let s = need lineno in
            match Feam_elf.Types.machine_of_uname m with
            | Some machine -> s.s_machine <- machine
            | None -> fail lineno ("unknown machine " ^ m))
          | [ "distro"; flavor; version; "kernel"; kernel ] ->
            let s = need lineno in
            (match String.lowercase_ascii flavor with
            | "centos" -> s.s_distro <- Distro.Centos
            | "rhel" -> s.s_distro <- Distro.Rhel
            | "sles" -> s.s_distro <- Distro.Sles
            | other -> fail lineno ("unknown distro " ^ other));
            s.s_distro_version <- parse_version lineno "distro" version;
            s.s_kernel <- parse_version lineno "kernel" kernel
          | [ "glibc"; v ] -> (need lineno).s_glibc <- parse_version lineno "glibc" v
          | [ "interconnect"; i ] -> (
            let s = need lineno in
            match String.lowercase_ascii i with
            | "ethernet" -> s.s_interconnect <- Interconnect.Ethernet
            | "infiniband" -> s.s_interconnect <- Interconnect.Infiniband
            | "numalink" -> s.s_interconnect <- Interconnect.Numalink
            | other -> fail lineno ("unknown interconnect " ^ other))
          | [ "compiler"; family; version ] -> (
            let s = need lineno in
            match Compiler.family_of_slug family with
            | Some f ->
              s.s_compilers <-
                s.s_compilers @ [ Compiler.make f (parse_version lineno "compiler" version) ]
            | None -> fail lineno ("unknown compiler family " ^ family))
          | [ "stack"; impl; version; compiler ] -> (
            let s = need lineno in
            match (Impl.of_slug impl, Compiler.family_of_slug compiler) with
            | Some impl, Some family ->
              let compiler =
                match
                  List.find_opt
                    (fun c -> Compiler.family_equal (Compiler.family c) family)
                    s.s_compilers
                with
                | Some c -> c
                | None -> fail lineno "stack compiler not declared (add a 'compiler' line first)"
              in
              let interconnect =
                match impl with
                | Impl.Mvapich2 -> Interconnect.Infiniband
                | Impl.Open_mpi | Impl.Mpich2 -> Interconnect.Ethernet
              in
              s.s_stacks <-
                s.s_stacks
                @ [
                    Stack.make ~impl
                      ~impl_version:(parse_version lineno "stack" version)
                      ~compiler ~interconnect;
                  ]
            | None, _ -> fail lineno ("unknown MPI implementation " ^ impl)
            | _, None -> fail lineno ("unknown compiler family " ^ compiler))
          | [ "modules"; m ] -> (
            let s = need lineno in
            match String.lowercase_ascii m with
            | "environment-modules" | "modules" -> s.s_modules <- Site.Environment_modules
            | "softenv" -> s.s_modules <- Site.Softenv
            | "none" -> s.s_modules <- Site.No_tool
            | other -> fail lineno ("unknown modules tool " ^ other))
          | [ "queue"; name; wait ] -> (
            let s = need lineno in
            match float_of_string_opt wait with
            | Some wait_seconds ->
              s.s_queues <-
                s.s_queues @ [ { Batch.queue_name = name; wait_seconds } ]
            | None -> fail lineno ("bad queue wait " ^ wait))
          | [ "faults"; f ] -> (
            let s = need lineno in
            match String.lowercase_ascii f with
            | "none" -> s.s_faults <- Fault_model.none
            | "default" -> s.s_faults <- Fault_model.default
            | other -> fail lineno ("unknown fault model " ^ other))
          | [ "seed"; n ] -> (
            let s = need lineno in
            match int_of_string_opt n with
            | Some seed -> s.s_seed <- seed
            | None -> fail lineno ("bad seed " ^ n))
          | _ -> fail lineno ("unrecognized directive: " ^ line))
      lines;
    if !sites = [] then Error { line = 0; message = "no sites defined" }
    else Ok (List.rev !sites)
  with Failure message -> Error { line = 0; message }

(* Build and provision one site from its spec, in [world]. *)
let build_site ~world (spec : site_spec) : Site.t =
  let queues =
    if spec.s_queues = [] then
      [ { Batch.queue_name = "debug"; wait_seconds = 10.0 } ]
    else spec.s_queues
  in
  let site =
    Site.make ~world ~compilers:spec.s_compilers ~seed:spec.s_seed
      ~fault_model:spec.s_faults ~modules_flavor:spec.s_modules
      ~machine:spec.s_machine
      ~distro:
        (Distro.make spec.s_distro ~version:spec.s_distro_version
           ~kernel:spec.s_kernel)
      ~glibc:spec.s_glibc ~interconnect:spec.s_interconnect
      ~batch:(Batch.make ~queues)
      spec.s_name
  in
  let _ =
    Feam_toolchain.Provision.provision_site site
      ~stacks:
        (List.map (fun st -> (st, Stack_install.Functioning)) spec.s_stacks)
  in
  site

(* Parse and build a whole scenario, as one world. *)
let load text =
  match parse text with
  | Error e -> Error (parse_error_to_string e)
  | Ok specs ->
    let world = Build_world.create () in
    Ok (List.map (build_site ~world) specs)

(* A commented example scenario, shipped for `feam scenario-template`. *)
let template =
  "# FEAM scenario file: a world of simulated sites.\n\
   # One directive per line; 'site NAME' opens a new site block.\n\n\
   site home\n\
  \  machine x86_64\n\
  \  distro centos 5.6 kernel 2.6.18\n\
  \  glibc 2.5\n\
  \  interconnect infiniband\n\
  \  compiler gnu 4.1.2\n\
  \  stack openmpi 1.4 gnu\n\
  \  modules environment-modules\n\
  \  queue debug 5\n\
  \  faults none\n\n\
   site target\n\
  \  machine x86_64\n\
  \  distro rhel 6.1 kernel 2.6.32\n\
  \  glibc 2.12\n\
  \  interconnect infiniband\n\
  \  compiler gnu 4.4.5\n\
  \  stack openmpi 1.4 gnu\n\
  \  modules environment-modules\n\
  \  queue debug 15\n\
  \  faults none\n"
