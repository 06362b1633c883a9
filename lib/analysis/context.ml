(* One uniform view over a bundle for the lint rules.  Descriptions are
   what the source phase *recorded*; specs are a byte-level reparse of
   every embedded image through its handle — keeping the two channels
   separate is what lets the staleness rule compare them.  The bundle
   carries each image's handle, so the matrix's thousands of sightings
   of the same staged images parse once each (elf.parse_memo.{hit,miss}
   count the sharing). *)

open Feam_util
open Feam_core

type kind = Root | Copy | Probe

type objekt = {
  obj_label : string;
  obj_origin : string;
  obj_kind : kind;
  obj_description : Description.t option;
  obj_bytes : string option;
  obj_spec : Feam_elf.Spec.t option;
  obj_parse_error : string option;
  obj_declared_size : int;
}

type target = {
  target_name : string option;
  target_machine : Feam_elf.Types.machine option;
  target_glibc : Version.t option;
}

type t = {
  bundle : Bundle.t;
  root : objekt;
  objects : objekt list;
  target : target option;
  symbols : Feam_symcheck.Symcheck.t Lazy.t;
}

let make_target ?name ?machine ?glibc () =
  { target_name = name; target_machine = machine; target_glibc = glibc }

let target_of_site site =
  {
    target_name = Some (Feam_sysmodel.Site.name site);
    target_machine = Some (Feam_sysmodel.Site.machine site);
    target_glibc = Some (Feam_sysmodel.Site.glibc site);
  }

let parse_image = function
  | None -> (None, None)
  | Some image -> (
    match Feam_elf.Reader.parse_image image with
    | Ok parsed -> (Some (Feam_elf.Reader.spec parsed), None)
    | Error e -> (None, Some (Feam_elf.Reader.error_to_string e)))

let make_objekt ~label ~origin ~kind ~description ~image ~declared_size =
  let spec, parse_error = parse_image image in
  {
    obj_label = label;
    obj_origin = origin;
    obj_kind = kind;
    obj_description = description;
    obj_bytes = Option.map Feam_elf.Reader.image_bytes image;
    obj_spec = spec;
    obj_parse_error = parse_error;
    obj_declared_size = declared_size;
  }

(* Labels double as graph nodes and finding subjects, so they must be
   unique even if two copies answer to the same DT_NEEDED name. *)
let uniquify labels =
  let seen = Hashtbl.create 16 in
  List.map
    (fun l ->
      match Hashtbl.find_opt seen l with
      | None ->
        Hashtbl.add seen l 1;
        l
      | Some n ->
        Hashtbl.replace seen l (n + 1);
        Printf.sprintf "%s#%d" l (n + 1))
    labels

let described t =
  List.filter_map
    (fun o -> Option.map (fun d -> (o, d)) o.obj_description)
    t.objects

let copies t = List.filter (fun o -> o.obj_kind = Copy) t.objects

let requirements t =
  described t
  |> List.concat_map (fun (o, d) ->
         List.map (fun name -> (o, name)) d.Description.needed)

(* A copy answers for the DT_NEEDED name it was gathered under even when
   its recorded soname is absent, hence the label check. *)
let provider t name =
  let requested = Soname.of_string name in
  let satisfies o =
    o.obj_label = name
    ||
    match o.obj_description with
    | None -> false
    | Some d -> (
      match (requested, d.Description.soname) with
      | Some required, Some provided -> Soname.satisfies ~provided ~required
      | _ -> false)
  in
  List.find_opt satisfies (copies t)

let dependency_edges t =
  requirements t
  |> List.filter_map (fun (o, name) ->
         match provider t name with
         | Some p when p.obj_label <> o.obj_label ->
           Some (o.obj_label, p.obj_label)
         | _ -> None)

(* The symbol-level rules' scope: the root plus the bundled copies
   ld.so would actually load, breadth-first over DT_NEEDED — the staged
   closure as the resolution model stages it.  Probes never join the
   scope (they are separate executables), and the C library is
   deliberately outside it: bundles never carry libc, so its absence is
   ignored rather than held against completeness. *)
let symbol_scope t =
  let members = ref [] in
  let added = Hashtbl.create 16 in
  let add o =
    match o.obj_spec with
    | Some spec when not (Hashtbl.mem added o.obj_label) ->
      Hashtbl.add added o.obj_label ();
      members :=
        { Feam_symcheck.Symcheck.mb_label = o.obj_label; mb_spec = spec }
        :: !members;
      Some spec
    | _ -> None
  in
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  let enqueue (spec : Feam_elf.Spec.t) =
    List.iter (fun n -> Queue.add n queue) spec.Feam_elf.Spec.needed
  in
  (match add t.root with Some s -> enqueue s | None -> ());
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      if not (Bdc.is_c_library name) then
        match provider t name with
        | Some o -> ( match add o with Some s -> enqueue s | None -> ())
        | None -> ()
    end
  done;
  Feam_symcheck.Symcheck.run ~ignore_needed:Bdc.is_c_library
    (List.rev !members)

let of_bundle ?target (bundle : Bundle.t) =
  let root =
    make_objekt
      ~label:bundle.Bundle.binary_description.Description.path
      ~origin:bundle.Bundle.binary_description.Description.path ~kind:Root
      ~description:(Some bundle.Bundle.binary_description)
      ~image:bundle.Bundle.binary_image
      ~declared_size:bundle.Bundle.binary_declared_size
  in
  let copy_labels =
    uniquify (List.map (fun c -> c.Bdc.copy_request) bundle.Bundle.copies)
  in
  let copies =
    List.map2
      (fun label (c : Bdc.library_copy) ->
        make_objekt ~label ~origin:c.Bdc.copy_origin_path ~kind:Copy
          ~description:(Some c.Bdc.copy_description)
          ~image:(Some c.Bdc.copy_image)
          ~declared_size:c.Bdc.copy_declared_size)
      copy_labels bundle.Bundle.copies
  in
  let probes =
    List.map
      (fun (p : Bundle.probe) ->
        make_objekt
          ~label:("probe " ^ p.Bundle.probe_name)
          ~origin:p.Bundle.probe_name ~kind:Probe ~description:None
          ~image:(Some p.Bundle.probe_image)
          ~declared_size:p.Bundle.probe_declared_size)
      bundle.Bundle.probes
  in
  let rec t =
    {
      bundle;
      root;
      objects = (root :: copies) @ probes;
      target;
      symbols = lazy (symbol_scope t);
    }
  in
  t

(* The simulation runs once; every later reader journals its verdict
   again, so a journal reads as if each rule had run it. *)
let symbols t =
  let again = Lazy.is_val t.symbols in
  let r = Lazy.force t.symbols in
  if again then Feam_symcheck.Symcheck.journal r;
  r
