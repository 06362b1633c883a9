(* The verdict lattice: every predictor's native output folded into
   ready / degraded / not-ready with attribution, so agreement, overturn
   and soundness are all computed over one representation. *)

type level = Ready | Degraded | Not_ready

let level_to_string = function
  | Ready -> "ready"
  | Degraded -> "degraded"
  | Not_ready -> "not-ready"

type attribution = { at_source : string; at_detail : string }

type t = { v_level : level; v_attribution : attribution list }

let ready = { v_level = Ready; v_attribution = [] }

let accepts t = t.v_level <> Not_ready
let strictly_ready t = t.v_level = Ready

type predictor = Tec | Lint | Symcheck | Oracle

let predictors = [ Tec; Lint; Symcheck; Oracle ]

let predictor_name = function
  | Tec -> "tec"
  | Lint -> "lint"
  | Symcheck -> "symcheck"
  | Oracle -> "oracle"

let predictor_of_name = function
  | "tec" -> Some Tec
  | "lint" -> Some Lint
  | "symcheck" -> Some Symcheck
  | "oracle" -> Some Oracle
  | _ -> None

let att at_source at_detail = { at_source; at_detail }

let of_predict (p : Feam_core.Predict.t) =
  let open Feam_core.Predict in
  match p.verdict with
  | Ready _ -> ready
  | Not_ready reasons ->
    let d = p.determinants in
    let failing =
      List.concat
        [
          (if not d.isa.isa_compatible then [ "isa" ] else []);
          (match d.stack with
          | Some s when not s.stack_compatible -> [ "stack" ]
          | _ -> []);
          (if not d.clib.clib_compatible then [ "clib" ] else []);
          (match d.libs with
          | Some l when not l.libs_compatible -> [ "libs" ]
          | _ -> []);
        ]
    in
    let attribution =
      match failing with
      | [] -> List.map (att "predict") reasons
      | sources ->
        List.map
          (fun s -> att s (String.concat "; " reasons))
          sources
    in
    { v_level = Not_ready; v_attribution = attribution }

let of_findings findings =
  let open Feam_core.Diagnose in
  let worst =
    List.fold_left
      (fun acc f ->
        match (acc, f.level) with
        | Some Error, _ | _, Error -> Some Error
        | Some Warn, _ | _, Warn -> Some Warn
        | _ -> Some Info)
      None findings
  in
  match worst with
  | None | Some Info -> ready
  | Some level ->
    let at = if level = Error then Error else Warn in
    {
      v_level = (if level = Error then Not_ready else Degraded);
      v_attribution =
        List.filter_map
          (fun f ->
            if f.level = at then Some (att f.rule_id f.subject) else None)
          findings;
    }

let of_symcheck (r : Feam_symcheck.Symcheck.t) =
  let module S = Feam_symcheck.Symcheck in
  match S.overturns r with
  | _ :: _ as misses ->
    {
      v_level = Not_ready;
      v_attribution =
        List.map (fun m -> att "symbol-unresolved" (S.miss_to_string m)) misses;
    }
  | [] ->
    let degraded =
      List.concat
        [
          List.map
            (fun m -> att "weak-unresolved" (S.miss_to_string m))
            r.S.unresolved_weak;
          List.map
            (fun i -> att "interposition" (S.interposition_to_string i))
            r.S.interpositions;
          (if r.S.complete then [] else [ att "scope" "incomplete scope" ]);
        ]
    in
    if degraded = [] then ready
    else { v_level = Degraded; v_attribution = degraded }

let failure_class (f : Feam_dynlinker.Exec.failure) =
  let open Feam_dynlinker.Exec in
  match f with
  | Not_executable _ -> "not-executable"
  | Wrong_isa _ -> "wrong-isa"
  | Missing_libraries _ -> "missing-libraries"
  | Arch_mismatched_libraries _ -> "arch-mismatched-libraries"
  | Unsatisfied_versions _ -> "unsatisfied-versions"
  | Interpreter_missing _ -> "interpreter-missing"
  | Invalid_process_count _ -> "invalid-process-count"
  | No_mpi_stack -> "no-mpi-stack"
  | Stack_misconfigured _ -> "stack-misconfigured"
  | Abi_incompatibility _ -> "abi-incompatibility"
  | Floating_point_error _ -> "floating-point-error"
  | Interconnect_unavailable _ -> "interconnect-unavailable"
  | System_error _ -> "system-error"

let of_outcome (o : Feam_dynlinker.Exec.outcome) =
  match o with
  | Feam_dynlinker.Exec.Success -> ready
  | Feam_dynlinker.Exec.Failure f ->
    {
      v_level = Not_ready;
      v_attribution =
        [ att (failure_class f) (Feam_dynlinker.Exec.failure_to_string f) ];
    }

(* What each predictor vouches for.  The TEC's library-level
   determinants cover the paper's four checks plus the version bindings
   resolution is supposed to guarantee; lint's target-aware rules cover
   ISA closure and glibc bindings; symcheck covers exactly the symbol
   version-binding channel.  Launch-time classes (process counts,
   interconnects, numerics) and loader conventions nobody inspects are
   out of scope for all three. *)
let claims p (f : Feam_dynlinker.Exec.failure) =
  let open Feam_dynlinker.Exec in
  match (p, f) with
  | ( Tec,
      ( Wrong_isa _ | Missing_libraries _ | Arch_mismatched_libraries _
      | Unsatisfied_versions _ | No_mpi_stack | Stack_misconfigured _
      | Not_executable _ ) ) ->
    true
  | Lint, (Wrong_isa _ | Unsatisfied_versions _ | Not_executable _) -> true
  | Symcheck, Unsatisfied_versions _ -> true
  | (Tec | Lint | Symcheck | Oracle), _ -> false
