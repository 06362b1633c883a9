(* The source phase's output: everything gathered at a guaranteed
   execution environment, bundled for transfer to target sites
   (paper §V: "The output from a source phase is bundled for the user and
   must be copied to each target site").

   Carrying the bundle enables the extended prediction (shipped
   hello-world probes) and the resolution model (library copies), and
   removes the need for the application binary to be present at the
   target. *)

open Feam_util

type library_copy = {
  copy_request : string;      (* the DT_NEEDED name this copy satisfies *)
  copy_origin_path : string;  (* where it was found at the guaranteed site *)
  copy_image : Feam_elf.Reader.image; (* the library image, by its handle *)
  copy_declared_size : int;   (* on-disk size, for bundle accounting *)
  copy_description : Description.t;
}

type probe = {
  probe_name : string;
  probe_image : Feam_elf.Reader.image; (* compiled at the guaranteed site *)
  probe_stack_slug : string;     (* stack it was compiled with *)
  probe_declared_size : int;
}

type t = {
  created_at : string;           (* guaranteed site name, informational *)
  binary_description : Description.t;
  binary_image : Feam_elf.Reader.image option; (* the application binary *)
  binary_declared_size : int;
  copies : library_copy list;
  unlocatable : string list;
  probes : probe list;
  source_discovery : Discovery.t;
}

(* Size of the shared-library part of the bundle, in bytes: the figure
   the paper reports averaging 45 MB per site (§VI.C). *)
let library_bytes t =
  List.fold_left (fun acc c -> acc + c.copy_declared_size) 0 t.copies

let total_bytes t =
  library_bytes t + t.binary_declared_size
  + List.fold_left (fun acc p -> acc + p.probe_declared_size) 0 t.probes

(* Copies that can satisfy a given DT_NEEDED name, applying the soname
   compatibility convention (same base and major version, §III.D). *)
let copies_for t name =
  let requested = Soname.of_string name in
  t.copies
  |> List.filter (fun c ->
         c.copy_request = name
         ||
         match (requested, c.copy_description.Description.soname) with
         | Some required, Some provided -> Soname.satisfies ~provided ~required
         | _ -> false)

(* Merge the copies of several bundles (used to bundle a whole corpus for
   one site, as the evaluation's per-site bundles do). *)
let merged_library_bytes bundles =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc b ->
      List.fold_left
        (fun acc c ->
          let key = c.copy_origin_path in
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            acc + c.copy_declared_size
          end)
        acc b.copies)
    0 bundles
