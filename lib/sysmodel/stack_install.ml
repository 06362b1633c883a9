(* One MPI stack installed at a site: the stack definition plus where it
   lives and whether it actually works.  The paper found that advertised
   stack combinations can be unusable due to administrator
   misconfiguration (§III.B); [health] models that. *)

open Feam_mpi

type health =
  | Functioning
  (* Advertised but broken: no program launches under this stack.  The
     cause strings mirror the paper's examples (updated compiler,
     reconfigured network, ...). *)
  | Misconfigured of string
  (* Works for natively compiled programs but breaks foreign binaries
     built with particular implementation versions: the ABI and
     floating-point defects that only the extended prediction's
     shipped hello-world probes can detect (§VI.C). *)
  | Foreign_binary_defect of foreign_defect

and foreign_defect = {
  (* Binaries built with these implementation major.minor versions fail. *)
  affected_build_versions : Feam_util.Version.t list;
  symptom : [ `Abi_incompatibility | `Floating_point_error ];
}

type t = {
  stack : Stack.t;
  prefix : string;   (* install prefix, e.g. /opt/openmpi-1.4.3-intel *)
  health : health;
  registered : bool; (* appears in the user-environment management tool *)
}

let make ?(health = Functioning) ?(registered = true) ~prefix stack =
  { stack; prefix; health; registered }

let stack t = t.stack
let health t = t.health
let registered t = t.registered

let lib_dir t = t.prefix ^ "/lib"
let bin_dir t = t.prefix ^ "/bin"

let module_name t = Stack.slug t.stack

(* Does a natively compiled program launch under this stack? *)
let launches_native t =
  match t.health with
  | Functioning | Foreign_binary_defect _ -> true
  | Misconfigured _ -> false

(* Does a foreign binary built with [build_version] of the same
   implementation launch under this stack (library-resolution aside)? *)
let accepts_foreign_build t ~build_version =
  match t.health with
  | Functioning -> Ok ()
  | Misconfigured why -> Error (`Misconfigured why)
  | Foreign_binary_defect d ->
    if List.exists (Feam_util.Version.equal build_version) d.affected_build_versions
    then Error (`Defect d.symptom)
    else Ok ()
