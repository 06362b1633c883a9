(** What the lint rules see: one uniform view over a source-phase bundle
    — the application binary, every bundled library copy and probe, their
    recorded descriptions, and a fresh byte-level reparse of every
    embedded image — plus, optionally, facts about the intended target
    site.  Built once; every rule reads from it. *)

type kind = Root | Copy | Probe

type objekt = {
  obj_label : string;  (** unique display name used as finding subject *)
  obj_origin : string;  (** source-site path (or probe name) *)
  obj_kind : kind;
  obj_description : Feam_core.Description.t option;
      (** the description recorded in the bundle; [None] for probes *)
  obj_bytes : string option;  (** embedded ELF image, when carried *)
  obj_spec : Feam_elf.Spec.t option;  (** reparse of [obj_bytes] *)
  obj_parse_error : string option;
      (** set when [obj_bytes] is present but does not parse *)
  obj_declared_size : int;
}

(** Facts about the target site the bundle is headed for.  All optional:
    lint without a target still runs every structural rule. *)
type target = {
  target_name : string option;
  target_machine : Feam_elf.Types.machine option;
  target_glibc : Feam_util.Version.t option;
}

type t = {
  bundle : Feam_core.Bundle.t;
  root : objekt;
  objects : objekt list;  (** root, then copies, then probes *)
  target : target option;
  symbols : Feam_symcheck.Symcheck.t Lazy.t;  (** read it with {!symbols} *)
}

val make_target :
  ?name:string ->
  ?machine:Feam_elf.Types.machine ->
  ?glibc:Feam_util.Version.t ->
  unit ->
  target

(** Target facts read off a simulated site. *)
val target_of_site : Feam_sysmodel.Site.t -> target

val of_bundle : ?target:target -> Feam_core.Bundle.t -> t

(** Objects carrying a recorded description (root and copies). *)
val described : t -> (objekt * Feam_core.Description.t) list

(** Bundled library copies only. *)
val copies : t -> objekt list

(** Every dependency requirement in the closure:
    (requiring object, DT_NEEDED name). *)
val requirements : t -> (objekt * string) list

(** The bundled copy that satisfies a DT_NEEDED name, applying the
    soname compatibility convention (§III.D); [None] when the bundle
    carries no satisfying copy. *)
val provider : t -> string -> objekt option

(** Adjacency of the dependency graph over object labels: edges from
    each described object to the bundled copies its DT_NEEDED entries
    resolve to. *)
val dependency_edges : t -> (string * string) list

(** The symbol-binding simulation over the bundle's staged scope (the
    root binary plus the copies reachable over DT_NEEDED), with
    C-library names exempt from the completeness requirement.  Run once
    per context, on the first call, and shared by every symbol-level
    rule; each later call journals the verdict again
    ({!Feam_symcheck.Symcheck.journal}), as a fresh run would. *)
val symbols : t -> Feam_symcheck.Symcheck.t
