(* Linux distribution model: what /proc/version and /etc/*release say.
   The paper's EDC gathers distribution information "only to provide the
   user with more information about a system" (§V.B); we also use the
   distribution to provision realistic default library locations. *)

open Feam_util

type flavor = Centos | Rhel | Sles

type t = { flavor : flavor; version : Version.t; kernel : Version.t }

let make flavor ~version ~kernel = { flavor; version; kernel }

let flavor t = t.flavor
let version t = t.version

let flavor_name = function
  | Centos -> "CentOS"
  | Rhel -> "Red Hat Enterprise Linux Server"
  | Sles -> "SUSE Linux Enterprise Server"

let name t =
  Printf.sprintf "%s %s" (flavor_name t.flavor) (Version.to_string t.version)

(* Path and contents of the release file the EDC consults. *)
let release_file t =
  match t.flavor with
  | Centos ->
    ( "/etc/redhat-release",
      Printf.sprintf "CentOS release %s (Final)" (Version.to_string t.version) )
  | Rhel ->
    ( "/etc/redhat-release",
      Printf.sprintf "Red Hat Enterprise Linux Server release %s (Santiago)"
        (Version.to_string t.version) )
  | Sles ->
    ( "/etc/SuSE-release",
      Printf.sprintf "SUSE Linux Enterprise Server %s (x86_64)\nVERSION = %s"
        (Version.to_string t.version)
        (Version.to_string t.version) )

(* Contents of /proc/version. *)
let proc_version t ~machine =
  Printf.sprintf
    "Linux version %s-194.el5 (mockbuild@%s) (gcc version 4.1.2) #1 SMP %s"
    (Version.to_string t.kernel)
    (Feam_elf.Types.machine_uname machine)
    "Tue Mar 16 21:52:39 EDT 2010"

(* Default system library directories by word size, in search order.
   These are the "common library locations" FEAM's search fallback
   scans (paper §V.A). *)
let default_lib_dirs ~bits =
  match bits with
  | `B64 -> [ "/lib64"; "/usr/lib64"; "/usr/local/lib64"; "/lib"; "/usr/lib" ]
  | `B32 -> [ "/lib"; "/usr/lib"; "/usr/local/lib" ]

let kernel_triple t =
  match Version.components t.kernel with
  | maj :: min_ :: patch :: _ -> (maj, min_, patch)
  | [ maj; min_ ] -> (maj, min_, 0)
  | [ maj ] -> (maj, 0, 0)
  | [] -> (2, 6, 0)
