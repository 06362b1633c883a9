(* Validation of the soname-major heuristic against the symbol closure.

   For every migration pair the harness re-runs the library-level
   resolution (the determinant behind the paper's readiness verdict) at
   the target with the user's matching stack, then walks the same
   closure with {!Feam_symcheck.Symcheck}.  A pair where the
   library-level check accepts but the symbol walk finds a definitive
   strong miss is an *overturn*: the soname-major acceptance was
   unsound for that closure.  The overturn rate is the headline number
   quantifying how often the heuristic over-promises. *)

open Feam_sysmodel

type t = {
  migrations : int;  (** pairs examined (matching MPI impl, other site) *)
  lib_accepted : int;  (** the library-level determinant accepts *)
  overturned : int;  (** accepted, yet the symbol closure refutes *)
  miss_symbols : int;  (** definitive strong misses across overturned pairs *)
}

let empty = { migrations = 0; lib_accepted = 0; overturned = 0; miss_symbols = 0 }

(* One pair: resolve at the target under the user's stack choice and
   diff the closure's exports against its imports.  The binary itself
   is examined from its bytes — resolution only needs the spec, so no
   staging into the target's file system is required. *)
let examine binary target =
  match Migrate.user_stack_choice binary target with
  | None -> None
  | Some install -> (
    match Feam_analysis.Factbase.spec_of_bytes binary.Testset.bytes with
    | Error _ -> None
    | Ok spec ->
      let env = Modules_tool.load_stack (Site.base_env target) install in
      let r = Feam_dynlinker.Resolve.run target env spec in
      let sc = Feam_symcheck.Symcheck.of_resolve r in
      Some (Feam_dynlinker.Resolve.ok r, Feam_symcheck.Symcheck.overturns sc))

let measure sites binaries =
  List.fold_left
    (fun acc (binary, target) ->
      match examine binary target with
      | None -> acc
      | Some (accepted, overturns) ->
        let overturned = accepted && overturns <> [] in
        {
          migrations = acc.migrations + 1;
          lib_accepted = (acc.lib_accepted + if accepted then 1 else 0);
          overturned = (acc.overturned + if overturned then 1 else 0);
          miss_symbols =
            (acc.miss_symbols + if overturned then List.length overturns else 0);
        })
    empty
    (Migrate.cells sites binaries)

let of_suite suite sites binaries =
  measure sites
    (List.filter
       (fun (b : Testset.binary) ->
         b.Testset.benchmark.Feam_suites.Benchmark.suite = suite)
       binaries)

let acceptance_rate t =
  if t.migrations = 0 then 0.0
  else float_of_int t.lib_accepted /. float_of_int t.migrations

(* Share of library-level acceptances the symbol closure refutes. *)
let overturn_rate t =
  if t.lib_accepted = 0 then 0.0
  else float_of_int t.overturned /. float_of_int t.lib_accepted
