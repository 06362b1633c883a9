(* Depot-backed bundles: a manifest is a bundle with every payload
   replaced by its content key.  Interning a bundle stores each distinct
   ELF image once ({!of_bundle}); resolving a manifest against the same
   depot rebuilds the exact legacy bundle ({!to_bundle}), so the
   self-contained Bundle_io format remains available as an export path
   while transfer planning operates on keys and byte counts alone. *)

open Feam_util
module Store = Feam_depot.Store

type entry = {
  me_request : string; (* the DT_NEEDED name this object satisfies *)
  me_key : Chash.t;
  me_size : int;
  me_origin : string;
  me_description : Description.t;
}

type probe_ref = {
  mp_name : string;
  mp_key : Chash.t;
  mp_size : int;
  mp_stack : string;
}

type t = {
  man_created_at : string;
  man_description : Description.t;
  man_binary : (Chash.t * int) option;
  man_entries : entry list;
  man_unlocatable : string list;
  man_probes : probe_ref list;
  man_discovery : Discovery.t;
}

let soname_meta (d : Description.t) =
  match d.Description.soname with
  | None -> (None, None)
  | Some s ->
    ( Some (Soname.to_string s),
      match Soname.version s with
      | [] -> None
      | v -> Some (String.concat "." (List.map string_of_int v)) )

(* [of_bundle store bundle] — intern every payload (binary, copies,
   probes) and return the manifest of keys.  Copy sidecars record the
   dependency keys of the copies that satisfy their DT_NEEDED names, so
   the store's GC can mark through the closure. *)
let of_bundle store (b : Bundle.t) =
  (* keys of every copy first (read through their image handles), so
     sidecar dependency lists can be complete at intern time *)
  let key_of_request =
    List.map
      (fun (c : Bdc.library_copy) ->
        (c.Bdc.copy_request, Feam_elf.Reader.image_key c.Bdc.copy_image))
      b.Bundle.copies
  in
  let provider = Some b.Bundle.created_at in
  let man_entries =
    List.map
      (fun (c : Bdc.library_copy) ->
        let d = c.Bdc.copy_description in
        let soname, version = soname_meta d in
        let deps =
          d.Description.needed
          |> List.filter_map (fun n ->
                 Option.map Chash.to_hex (List.assoc_opt n key_of_request))
        in
        let _, key =
          Store.intern store
            ~meta:
              (Store.meta ?soname ?version ?provider
                 ~origin:c.Bdc.copy_origin_path ~deps
                 ~size:c.Bdc.copy_declared_size ())
            c.Bdc.copy_image
        in
        {
          me_request = c.Bdc.copy_request;
          me_key = key;
          me_size = c.Bdc.copy_declared_size;
          me_origin = c.Bdc.copy_origin_path;
          me_description = d;
        })
      b.Bundle.copies
  in
  let man_binary =
    match b.Bundle.binary_image with
    | None -> None
    | Some image ->
      let _, key =
        Store.intern store
          ~meta:
            (Store.meta ?provider
               ~origin:b.Bundle.binary_description.Description.path
               ~deps:(List.map (fun e -> Chash.to_hex e.me_key) man_entries)
               ~size:b.Bundle.binary_declared_size ())
          image
      in
      Some (key, b.Bundle.binary_declared_size)
  in
  let man_probes =
    List.map
      (fun (p : Bundle.probe) ->
        let _, key =
          Store.intern store
            ~meta:
              (Store.meta ?provider ~origin:p.Bundle.probe_name
                 ~size:p.Bundle.probe_declared_size ())
            p.Bundle.probe_image
        in
        {
          mp_name = p.Bundle.probe_name;
          mp_key = key;
          mp_size = p.Bundle.probe_declared_size;
          mp_stack = p.Bundle.probe_stack_slug;
        })
      b.Bundle.probes
  in
  {
    man_created_at = b.Bundle.created_at;
    man_description = b.Bundle.binary_description;
    man_binary;
    man_entries;
    man_unlocatable = b.Bundle.unlocatable;
    man_probes;
    man_discovery = b.Bundle.source_discovery;
  }

(* [to_bundle store t] — resolve every key; the rebuilt bundle is
   byte-identical to the one interned (the export path). *)
let to_bundle store t =
  let fetch what key =
    match Store.find store key with
    | Some e -> Ok e.Store.e_bytes
    | None ->
      Error
        (Printf.sprintf "depot is missing %s object %s" what (Chash.to_hex key))
  in
  let ( let* ) = Result.bind in
  let* binary =
    match t.man_binary with
    | None -> Ok None
    | Some (key, size) ->
      let* bytes = fetch "binary" key in
      Ok (Some (bytes, size))
  in
  let* copies =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* bytes = fetch ("copy " ^ e.me_request) e.me_key in
        Ok
          ({
             Bdc.copy_request = e.me_request;
             copy_origin_path = e.me_origin;
             copy_image = Feam_elf.Reader.image bytes;
             copy_declared_size = e.me_size;
             copy_description = e.me_description;
           }
           :: acc))
      (Ok []) t.man_entries
  in
  let* probes =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* bytes = fetch ("probe " ^ p.mp_name) p.mp_key in
        Ok
          ({
             Bundle.probe_name = p.mp_name;
             probe_image = Feam_elf.Reader.image bytes;
             probe_stack_slug = p.mp_stack;
             probe_declared_size = p.mp_size;
           }
           :: acc))
      (Ok []) t.man_probes
  in
  Ok
    {
      Bundle.created_at = t.man_created_at;
      binary_description = t.man_description;
      binary_image =
        Option.map (fun (bytes, _) -> Feam_elf.Reader.image bytes) binary;
      binary_declared_size =
        (match binary with Some (_, size) -> size | None -> 0);
      copies = List.rev copies;
      unlocatable = t.man_unlocatable;
      probes = List.rev probes;
      source_discovery = t.man_discovery;
    }

(* Every distinct content key the manifest references. *)
let keys t =
  let all =
    (match t.man_binary with Some (k, _) -> [ k ] | None -> [])
    @ List.map (fun e -> e.me_key) t.man_entries
    @ List.map (fun p -> p.mp_key) t.man_probes
  in
  List.sort_uniq Chash.compare all

(* The transfer-planner view: binary first (the user's scp), then the
   library closure, then the probes — the order the target phase needs
   them in. *)
let wants t =
  (match t.man_binary with
  | Some (key, size) ->
    [
      Feam_depot.Planner.want
        ~label:
          ("binary:" ^ Filename.basename t.man_description.Description.path)
        ~key ~size;
    ]
  | None -> [])
  @ List.map
      (fun e ->
        Feam_depot.Planner.want ~label:e.me_request ~key:e.me_key
          ~size:e.me_size)
      t.man_entries
  @ List.map
      (fun p ->
        Feam_depot.Planner.want ~label:("probe:" ^ p.mp_name) ~key:p.mp_key
          ~size:p.mp_size)
      t.man_probes
