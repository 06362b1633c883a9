(* Site ranking: the paper's motivating use-case ("scientists can gain
   quicker access to sites with more cores or sites experiencing shorter
   queuing delays", §I) turned into a decision aid.

   Given one binary's bundle and a list of candidate sites, run the
   target phase everywhere and order the sites: predicted-ready sites
   first, by expected time-to-first-result (queue wait + FEAM phase
   time); not-ready sites last, with their blocking reason. *)

open Feam_sysmodel

type entry = {
  rank_site : string;
  ready : bool;
  queue_wait_seconds : float;     (* default queue wait at the site *)
  phase_seconds : float;          (* simulated target-phase duration *)
  staged_libraries : int;         (* resolution work performed *)
  blocking_reason : string option;
}

(* Expected seconds until the user sees a first successful run. *)
let time_to_first_result e = e.queue_wait_seconds +. e.phase_seconds

(* The target phase at one candidate, in a scope: ranking leaves every
   candidate site as it found it. *)
let evaluate_site config bundle target =
  Vfs.scoped (Site.vfs target) @@ fun () ->
  let clock = Feam_util.Sim_clock.create () in
  let queue = Batch.debug_queue (Site.batch target) in
  match
    Feam_util.Effects.with_clock clock @@ fun () ->
    Feam_core.Phases.target_phase config target (Site.base_env target) ~bundle ()
  with
  | Error e ->
    {
      rank_site = Site.name target;
      ready = false;
      queue_wait_seconds = queue.Batch.wait_seconds;
      phase_seconds = Feam_util.Sim_clock.elapsed clock;
      staged_libraries = 0;
      blocking_reason = Some e;
    }
  | Ok report ->
    let p = Feam_core.Report.prediction report in
    let staged =
      match p.Feam_core.Predict.verdict with
      | Feam_core.Predict.Ready plan ->
        List.length plan.Feam_core.Predict.staged_copies
      | Feam_core.Predict.Not_ready _ -> 0
    in
    {
      rank_site = Site.name target;
      ready = Feam_core.Predict.is_ready p;
      queue_wait_seconds = queue.Batch.wait_seconds;
      phase_seconds = Feam_util.Sim_clock.elapsed clock;
      staged_libraries = staged;
      blocking_reason =
        (match Feam_core.Predict.reasons p with r :: _ -> Some r | [] -> None);
    }

(* Rank candidate sites for a bundle: ready sites by time-to-first-result,
   then the rest. *)
let rank config bundle targets =
  let entries = List.map (evaluate_site config bundle) targets in
  let ready, blocked = List.partition (fun e -> e.ready) entries in
  let by_time =
    List.sort
      (fun a b -> Float.compare (time_to_first_result a) (time_to_first_result b))
      ready
  in
  by_time @ blocked

let table entries =
  let rows =
    List.mapi
      (fun i e ->
        [
          (if e.ready then string_of_int (i + 1) else "-");
          e.rank_site;
          (if e.ready then "READY" else "not ready");
          Printf.sprintf "%.0f s" (time_to_first_result e);
          string_of_int e.staged_libraries;
          (match e.blocking_reason with
          | Some r when not e.ready ->
            if String.length r > 46 then String.sub r 0 46 ^ "..." else r
          | _ -> "");
        ])
      entries
  in
  Feam_util.Table.make ~title:"Site ranking: where to run first"
    ~header:[ "#"; "Site"; "Prediction"; "Time to result"; "Copies"; "Blocker" ]
    rows
