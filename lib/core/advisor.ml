(* Migration-strategy advisor: the paper's future-work direction of
   handling MPI application *source* migration alongside binaries
   (§VII: "This will include migrating MPI application binaries as well
   as MPI application source code").

   Given a binary's readiness prediction at a target and, when the user
   owns the source, the target's recompilation prospects, the advisor
   recommends one of: run the migrated binary (fast, FEAM-configured),
   recompile at the target (slower, but native), or neither.  The
   trade-off mirrors the paper's introduction: moving binaries avoids
   long compile times and compiling community codes, at the price of
   stricter environment matching. *)

open Feam_sysmodel

(* Estimated wall-clock of recompiling a source tree at a site, in
   seconds: configure + build scaled by source size, through the same
   batch/debug-queue accounting as everything else. *)
let recompile_seconds ~source_size_mb site =
  let queue = Batch.debug_queue (Site.batch site) in
  queue.Batch.wait_seconds
  +. Cost.compile_mpi
  +. (240.0 *. source_size_mb) (* large scientific codes build slowly *)

type recompile_check = {
  rc_stack_slug : string;      (* stack whose wrappers would be used *)
  rc_estimate_seconds : float;
}

type strategy =
  | Use_binary of Predict.plan
      (* the migrated binary is predicted ready: run it as configured *)
  | Recompile of recompile_check
      (* binary not ready, but the target can rebuild from source *)
  | Not_viable of string list
      (* neither the binary nor a rebuild can work at this target *)

type advice = {
  strategy : strategy;
  binary_prediction : Predict.t;
  considered_recompile : recompile_check option;
  rationale : string;
}

(* Can [program] be rebuilt at [site]?  Needs a native toolchain and a
   stack whose wrappers accept the source (any MPI implementation: source
   is portable across implementations, unlike binaries). *)
let recompile_viability site (program : Feam_toolchain.Compile.program) =
  if not (Site.tools site).Tools.c_compiler then
    Error "no native compiler toolchain at the target"
  else
    let candidates =
      Site.stack_installs site |> List.filter Stack_install.launches_native
    in
    let viable =
      List.find_map
        (fun install ->
          match Feam_toolchain.Compile.compile_mpi site install program with
          | Ok _ ->
            Some
              {
                rc_stack_slug = Stack_install.module_name install;
                rc_estimate_seconds =
                  recompile_seconds
                    ~source_size_mb:program.Feam_toolchain.Compile.binary_size_mb
                    site;
              }
          | Error _ -> None)
        candidates
    in
    match viable with
    | Some check -> Ok check
    | None -> Error "no functioning MPI stack accepts the source"

(* [advise] combines the binary prediction with the recompilation check.
   [source] is the program model of the source tree when the user owns
   it; community codes distributed as binaries pass [None]. *)
let advise site ~(binary_prediction : Predict.t)
    ~(source : Feam_toolchain.Compile.program option) : advice =
  let considered_recompile =
    match source with
    | None -> None
    | Some program -> (
      match recompile_viability site program with
      | Ok check -> Some check
      | Error _ -> None)
  in
  match binary_prediction.Predict.verdict with
  | Predict.Ready plan ->
    {
      strategy = Use_binary plan;
      binary_prediction;
      considered_recompile;
      rationale =
        "the migrated binary is predicted ready: no compile time, no source \
         required";
    }
  | Predict.Not_ready reasons -> (
    match considered_recompile with
    | Some check ->
      {
        strategy = Recompile check;
        binary_prediction;
        considered_recompile;
        rationale =
          Printf.sprintf
            "binary migration fails (%s) but the target can rebuild from \
             source with %s in about %.0f s"
            (match reasons with r :: _ -> r | [] -> "unknown")
            check.rc_stack_slug check.rc_estimate_seconds;
      }
    | None ->
      {
        strategy = Not_viable reasons;
        binary_prediction;
        considered_recompile;
        rationale =
          (match source with
          | None ->
            "binary migration fails and no source is available to rebuild \
             from"
          | Some _ ->
            "binary migration fails and the target cannot rebuild the source");
      })

let strategy_to_string = function
  | Use_binary _ -> "use migrated binary"
  | Recompile check ->
    Printf.sprintf "recompile with %s (~%.0f s)" check.rc_stack_slug
      check.rc_estimate_seconds
  | Not_viable _ -> "not viable"
