(* The fact base: per-object facts, a pure projection of what an image
   handle already holds — its parse (spec or error) and its content
   key.  Nothing is stored here: the same handle projects from one parse
   and one hash however often it is asked about, and a fresh handle on
   equal bytes parses and hashes again. *)

open Feam_util

type facts = {
  fb_key : Chash.t;
  fb_size : int;
  fb_spec : Feam_elf.Spec.t option;
  fb_parse_error : string option;
  fb_soname : string option;
  fb_needed : string list;
  fb_verneeds : Feam_elf.Spec.verneed list;
  fb_machine : Feam_elf.Types.machine option;
  fb_elf_class : Feam_elf.Types.elf_class option;
  fb_interp : string option;
  fb_exports : string list;
  fb_glibc_floor : Version.t option;
}

(* The oldest glibc that can host the object: the newest GLIBC_x
   version it binds from a C library.  Unparseable version strings
   (GLIBC_PRIVATE and friends) are the glibc-verneed rule's business,
   not a floor. *)
let glibc_floor (spec : Feam_elf.Spec.t) =
  spec.Feam_elf.Spec.verneeds
  |> List.concat_map (fun vn ->
         if Feam_core.Bdc.is_c_library vn.Feam_elf.Spec.vn_file then
           List.filter_map Feam_toolchain.Glibc.version_of_symbol
             vn.Feam_elf.Spec.vn_versions
         else [])
  |> function
  | [] -> None
  | v :: vs -> Some (List.fold_left Version.max v vs)

let sorted_exports (spec : Feam_elf.Spec.t) =
  Feam_elf.Spec.exports spec
  |> List.map (fun d -> d.Feam_elf.Spec.sym_name)
  |> List.sort_uniq String.compare

let facts_of_image image =
  let spec, parse_error =
    match Feam_elf.Reader.parse_image image with
    | Ok parsed -> (Some (Feam_elf.Reader.spec parsed), None)
    | Error e -> (None, Some (Feam_elf.Reader.error_to_string e))
  in
  let field f = Option.bind spec f in
  {
    fb_key = Feam_elf.Reader.image_key image;
    fb_size = String.length (Feam_elf.Reader.image_bytes image);
    fb_spec = spec;
    fb_parse_error = parse_error;
    fb_soname = field (fun s -> s.Feam_elf.Spec.soname);
    fb_needed =
      (match spec with None -> [] | Some s -> s.Feam_elf.Spec.needed);
    fb_verneeds =
      (match spec with None -> [] | Some s -> s.Feam_elf.Spec.verneeds);
    fb_machine = Option.map (fun s -> s.Feam_elf.Spec.machine) spec;
    fb_elf_class = Option.map (fun s -> s.Feam_elf.Spec.elf_class) spec;
    fb_interp = field (fun s -> s.Feam_elf.Spec.interp);
    fb_exports = (match spec with None -> [] | Some s -> sorted_exports s);
    fb_glibc_floor = field glibc_floor;
  }

let spec_of_bytes bytes =
  Result.map_error Feam_elf.Reader.error_to_string
    (Feam_elf.Reader.spec_of_bytes bytes)

let reset () = ()
