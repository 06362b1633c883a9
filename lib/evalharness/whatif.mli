(** What-if analysis for site administrators: measure how many more
    migrations into a site would succeed if one hypothetical
    installation (a compiler runtime, an MPI stack) were made — turning
    FEAM's evaluation data into an install-prioritization aid. *)

type change =
  | Add_compiler of Feam_mpi.Compiler.t
  | Add_stack of Feam_mpi.Stack.t

val change_to_string : change -> string

type result = {
  site : string;
  change : string;
  successes_before_change : int;
  successes_after_change : int;
  migrations : int;
}

(** Evaluate one hypothetical change at one Table II site (runs the full
    evaluation twice: baseline and changed world). *)
val evaluate : Params.t -> site_name:string -> change:change -> result

val table : result list -> Feam_util.Table.t
