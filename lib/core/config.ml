(* User-supplied configuration (paper §V): before running FEAM, the user
   specifies a serial and parallel submission script for the site — the
   only site knowledge FEAM requires — plus which phase to run, where the
   binary lives, and optional per-MPI-type launcher overrides. *)

open Feam_mpi

type phase_selection = Source_phase | Target_phase | Both_phases

type t = {
  phase : phase_selection;
  binary_path : string option;   (* required for the source phase and for
                                    target phases without a bundle *)
  serial_queue : string option;  (* submission queue names; site default
                                    (debug) queue when omitted *)
  parallel_queue : string option;
  (* mpiexec is used by default; the user can override per MPI type
     (paper §V.C). *)
  launcher_overrides : (Impl.t * string) list;
  staging_dir : string;          (* where resolved library copies land *)
  probe_np : int;                (* process count for MPI probes *)
}

let default =
  {
    phase = Target_phase;
    binary_path = None;
    serial_queue = None;
    parallel_queue = None;
    launcher_overrides = [];
    staging_dir = "/tmp/feam/staged_libs";
    probe_np = 4;
  }

let launcher t impl =
  match List.assoc_opt impl t.launcher_overrides with
  | Some l -> l
  | None -> Stack.default_launcher

(* Serialize a configuration back to the "key = value" file format.
   [of_file_body] on the result reproduces the configuration. *)
let to_file_body t =
  let buf = Buffer.create 128 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "phase = %s\n"
    (match t.phase with
    | Source_phase -> "source"
    | Target_phase -> "target"
    | Both_phases -> "both");
  Option.iter (fun b -> addf "binary = %s\n" b) t.binary_path;
  Option.iter (fun q -> addf "serial_queue = %s\n" q) t.serial_queue;
  Option.iter (fun q -> addf "parallel_queue = %s\n" q) t.parallel_queue;
  addf "staging_dir = %s\n" t.staging_dir;
  addf "probe_np = %d\n" t.probe_np;
  List.iter
    (fun (impl, launcher) ->
      addf "launcher.%s = %s\n" (Impl.slug impl) launcher)
    t.launcher_overrides;
  Buffer.contents buf

(* Parse a simple "key = value" configuration file body, the format the
   CLI accepts.  Unknown keys are reported, not ignored. *)
let of_file_body body =
  let lines = String.split_on_char '\n' body in
  let trim = String.trim in
  let parse_line (config, errors) line =
    let line = trim line in
    if line = "" || line.[0] = '#' then (config, errors)
    else
      match String.index_opt line '=' with
      | None -> (config, Printf.sprintf "missing '=': %S" line :: errors)
      | Some i ->
        let key = trim (String.sub line 0 i) in
        let value = trim (String.sub line (i + 1) (String.length line - i - 1)) in
        (match key with
        | "phase" -> (
          match value with
          | "source" -> ({ config with phase = Source_phase }, errors)
          | "target" -> ({ config with phase = Target_phase }, errors)
          | "both" -> ({ config with phase = Both_phases }, errors)
          | _ -> (config, Printf.sprintf "bad phase: %S" value :: errors))
        | "binary" -> ({ config with binary_path = Some value }, errors)
        | "serial_queue" -> ({ config with serial_queue = Some value }, errors)
        | "parallel_queue" -> ({ config with parallel_queue = Some value }, errors)
        | "staging_dir" -> ({ config with staging_dir = value }, errors)
        | "probe_np" -> (
          match int_of_string_opt value with
          | Some n when n > 0 -> ({ config with probe_np = n }, errors)
          | _ -> (config, Printf.sprintf "bad probe_np: %S" value :: errors))
        | key when String.length key > 9 && String.sub key 0 9 = "launcher." -> (
          let slug = String.sub key 9 (String.length key - 9) in
          match Impl.of_slug slug with
          | Some impl ->
            ( { config with launcher_overrides = (impl, value) :: config.launcher_overrides },
              errors )
          | None -> (config, Printf.sprintf "unknown MPI type: %S" slug :: errors))
        | _ -> (config, Printf.sprintf "unknown key: %S" key :: errors))
  in
  let config, errors = List.fold_left parse_line (default, []) lines in
  if errors = [] then Ok config else Error (List.rev errors)
