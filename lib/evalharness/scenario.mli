(** Scenario files: a small text format describing a world of simulated
    sites, so CLI users can model their own environments.  See
    {!template} for the syntax. *)

type site_spec

type parse_error = { line : int; message : string }

(** Parse and build a whole scenario: its sites share one fresh
    world. *)
val load : string -> (Feam_sysmodel.Site.t list, string) result

(** A commented example scenario file. *)
val template : string
