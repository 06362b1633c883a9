(* Remediation guidance: turns a prediction's determinant record into
   concrete next steps.  The paper's §IV observes that the first three
   determinants can only be fixed by heavyweight means (emulation,
   administrator-installed MPI stacks, a different C library) while
   shared libraries are user-fixable; this module spells those paths out
   for the person reading the report. *)

type severity =
  | User_fixable        (* the scientist can act alone *)
  | Needs_administrator (* requires site privileges *)
  | Needs_rebuild       (* only recompilation can fix it *)

type remedy = {
  severity : severity;
  action : string;
}

let severity_to_string = function
  | User_fixable -> "user-fixable"
  | Needs_administrator -> "needs administrator"
  | Needs_rebuild -> "needs rebuild"

(* -- Static-analysis findings ------------------------------------------- *)

(* The structured diagnostic emitted by the `feam lint` analysis layer
   (lib/analysis).  The type lives here so that reports can carry
   findings and remediation can consume them without the core depending
   on the analysis library. *)

type level = Error | Warn | Info

type finding = {
  rule_id : string;
  level : level;
  subject : string;  (* the object or name the finding is about *)
  message : string;
  fixit : string option;  (* a concrete suggested fix, when one exists *)
}

let level_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"

let level_of_string = function
  | "error" -> Some Error
  | "warn" -> Some Warn
  | "info" -> Some Info
  | _ -> None

let level_rank = function Error -> 0 | Warn -> 1 | Info -> 2

(* Severe first, then by rule id and subject: a stable presentation
   order for reports and lint output. *)
let compare_finding a b =
  let c = compare (level_rank a.level) (level_rank b.level) in
  if c <> 0 then c
  else
    let c = String.compare a.rule_id b.rule_id in
    if c <> 0 then c else String.compare a.subject b.subject

(* Remedies for one prediction, in determinant order. *)
let remedies (p : Predict.t) : remedy list =
  let d = p.Predict.determinants in
  let isa_remedies =
    if d.Predict.isa.Predict.isa_compatible then []
    else
      [
        {
          severity = Needs_rebuild;
          action =
            Printf.sprintf
              "the binary targets %s hardware: recompile from source at the \
               target, or choose a site with matching hardware (emulation is \
               not practical for MPI workloads)"
              (Feam_elf.Types.machine_uname d.Predict.isa.Predict.binary_machine);
        };
      ]
  in
  let clib_remedies =
    if d.Predict.clib.Predict.clib_compatible then []
    else
      [
        {
          severity = Needs_administrator;
          action =
            Printf.sprintf
              "the site's C library (%s) is older than the binary requires \
               (%s): ask the administrator for a newer compatibility glibc, \
               or rebuild on a system with the site's C library"
              (match d.Predict.clib.Predict.available with
              | Some v -> Feam_util.Version.to_string v
              | None -> "unknown")
              (match d.Predict.clib.Predict.required with
              | Some v -> Feam_util.Version.to_string v
              | None -> "unknown");
        };
      ]
  in
  let stack_remedies =
    match d.Predict.stack with
    | Some sc when not sc.Predict.stack_compatible ->
      if sc.Predict.candidates_found = [] then
        [
          {
            severity = Needs_administrator;
            action =
              (match sc.Predict.requested_impl with
              | Some impl ->
                Printf.sprintf
                  "no %s installation exists at the site: ask the \
                   administrator to install one, or rebuild against an \
                   available implementation"
                  (Feam_mpi.Impl.name impl)
              | None -> "no MPI stack is available at the site");
          };
        ]
      else
        List.map
          (fun (slug, why) ->
            {
              severity = Needs_administrator;
              action =
                Printf.sprintf
                  "stack %s is advertised but failed its probe (%s): report \
                   the misconfiguration to the site administrators" slug why;
            })
          sc.Predict.probe_failures
    | _ -> []
  in
  let libs_remedies =
    match d.Predict.libs with
    | Some lc when not lc.Predict.libs_compatible ->
      List.map
        (fun (name, why) ->
          let is_clib_reject =
            Feam_sysmodel.Str_split.contains ~sub:"C library" why
          in
          {
            severity = (if is_clib_reject then Needs_rebuild else User_fixable);
            action =
              (if is_clib_reject then
                 Printf.sprintf
                   "library %s cannot be supplied by copy (%s): rebuild the \
                    application or the library against the site's C library"
                   name why
               else
                 Printf.sprintf
                   "library %s is missing (%s): obtain a copy from a site \
                    where the binary runs and expose it via LD_LIBRARY_PATH \
                    (FEAM's source phase automates this)"
                   name why);
          })
        lc.Predict.unresolved
    | _ -> []
  in
  isa_remedies @ clib_remedies @ stack_remedies @ libs_remedies

(* Render remediation guidance as report text. *)
let render (p : Predict.t) =
  match remedies p with
  | [] -> "no remediation needed: the site is predicted ready\n"
  | remedies ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "remediation guidance:\n";
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  [%s] %s\n" (severity_to_string r.severity) r.action))
      remedies;
    Buffer.contents buf
