(* The resolution model (paper §IV): missing shared libraries can often
   be supplied by making a copy from the guaranteed execution environment
   available at runtime.  Each candidate copy is vetted by recursively
   applying the prediction model to it — a shared library is a binary
   too: its ISA must match, its C library requirements must be met at the
   target, and its own dependencies must be present or themselves
   resolvable.  Usable copies are staged and exposed through the runtime
   environment. *)

open Feam_util
open Feam_sysmodel

type rejection =
  | No_copy_available
  | Copy_wrong_isa
  | Copy_clib_incompatible of { copy_requires : Version.t; target_has : Version.t option }
  | Copy_dependency_unresolvable of string

let rejection_slug = function
  | No_copy_available -> "no_copy"
  | Copy_wrong_isa -> "wrong_isa"
  | Copy_clib_incompatible _ -> "clib_incompatible"
  | Copy_dependency_unresolvable _ -> "dependency"

let rejection_to_string = function
  | No_copy_available -> "no copy available in the bundle"
  | Copy_wrong_isa -> "copy was built for a different ISA"
  | Copy_clib_incompatible { copy_requires; target_has } ->
    Printf.sprintf "copy requires C library %s, target has %s"
      (Version.to_string copy_requires)
      (match target_has with Some v -> Version.to_string v | None -> "unknown")
  | Copy_dependency_unresolvable dep ->
    Printf.sprintf "copy's own dependency %s cannot be resolved" dep

type outcome = {
  staged : (string * string) list;         (* needed name -> staged path *)
  staged_keys : (string * string) list;    (* needed name -> depot key hex *)
  failed : (string * rejection) list;
  env : Env.t;                              (* with staging dir exposed *)
}

(* A depot handle: staged copies are interned into the shared store, and
   transfer cost is charged only for objects the target site does not
   already hold (the per-site possession index). *)
type depot = {
  depot_store : Feam_depot.Store.t;
  depot_possession : Feam_depot.Planner.Possession.index;
}

let depot ~store ~possession =
  { depot_store = store; depot_possession = possession }

(* The loader's view of the site: LD_LIBRARY_PATH, then the cache
   directories as `ldconfig -p` reports them (reading the cache, not
   ld.so.conf — so a stale cache is seen for what it is), then the
   defaults. *)
let search_dirs_for_name site env =
  Env.ld_library_path env @ Site.ld_cache_dirs site @ Site.default_lib_dirs site

let present_at_target site env name =
  Feam_dynlinker.Search.locate_in_dirs site (search_dirs_for_name site env) name
  <> None

(* [resolve config site env ~bundle ~target_glibc ~binary_machine
   ~missing] — attempt to resolve every name in [missing] from the
   bundle's copies. *)
let resolve ?depot config site env ~(bundle : Bundle.t) ~target_glibc
    ~binary_machine ~binary_class ~missing =
  Feam_obs.Ledger.with_stage "resolve.resolve" @@ fun () ->
  Feam_obs.Trace.with_span "resolve.resolve"
    ~attrs:[ ("missing", Feam_obs.Span.Int (List.length missing)) ]
  @@ fun () ->
  let staging = config.Config.staging_dir in
  let vfs = Site.vfs site in
  (* Verdict memo; names currently being vetted are assumed usable so
     that dependency cycles between copies resolve. *)
  let memo : (string, (Bdc.library_copy, rejection) result) Hashtbl.t =
    Hashtbl.create 16
  in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec vet name : (Bdc.library_copy, rejection) result =
    match Hashtbl.find_opt memo name with
    | Some verdict -> verdict
    | None ->
      if Hashtbl.mem visiting name then
        (* cycle: optimistically usable; the partner copy is being vetted *)
        match Bundle.copies_for bundle name with
        | copy :: _ -> Ok copy
        | [] -> Error No_copy_available
      else begin
        Hashtbl.add visiting name ();
        let verdict =
          match Bundle.copies_for bundle name with
          | [] -> Error No_copy_available
          | copy :: _ ->
            let d = copy.Bdc.copy_description in
            if
              not
                (d.Description.machine = binary_machine
                && d.Description.elf_class = binary_class)
            then Error Copy_wrong_isa
            else if
              not
                (Predict.clib_rule ~required:d.Description.required_glibc
                   ~available:target_glibc)
            then
              Error
                (Copy_clib_incompatible
                   {
                     copy_requires =
                       Option.value d.Description.required_glibc
                         ~default:(Version.of_ints [ 0 ]);
                     target_has = target_glibc;
                   })
            else begin
              (* The copy's own dependencies: present at the target, the
                 C library (already vetted via the version rule), or
                 recursively resolvable from the bundle. *)
              let dep_problem =
                d.Description.needed
                |> List.find_map (fun dep ->
                       if Bdc.is_c_library dep then None
                       else if present_at_target site env dep then None
                       else
                         match vet dep with
                         | Ok _ -> None
                         | Error _ -> Some dep)
              in
              match dep_problem with
              | Some dep -> Error (Copy_dependency_unresolvable dep)
              | None -> Ok copy
            end
        in
        Hashtbl.remove visiting name;
        Hashtbl.replace memo name verdict;
        verdict
      end
  in
  let staged = ref [] in
  let staged_keys = ref [] in
  let failed = ref [] in
  let stage_copy name (copy : Bdc.library_copy) =
    let path = staging ^ "/" ^ name in
    Vfs.add_image ~declared_size:copy.Bdc.copy_declared_size vfs path
      copy.Bdc.copy_image;
    let charge () =
      Cost.charge
        (Cost.copy_per_mb
        *. (float_of_int copy.Bdc.copy_declared_size /. 1048576.0))
    in
    (match depot with
    | None -> charge ()
    | Some d ->
      (* Stage via the depot: intern the image, then ship it only if the
         target site does not already hold the object. *)
      let cd = copy.Bdc.copy_description in
      let _, key =
        Feam_depot.Store.intern d.depot_store
          ~meta:
            (Feam_depot.Store.meta
               ?soname:(Option.map Soname.to_string cd.Description.soname)
               ~origin:copy.Bdc.copy_origin_path
               ~size:copy.Bdc.copy_declared_size ())
          copy.Bdc.copy_image
      in
      let site_name = Site.name site in
      if
        Feam_depot.Planner.Possession.mem d.depot_possession ~site:site_name
          key
      then Feam_obs.Metrics.incr "resolve.depot_reused"
      else begin
        charge ();
        Feam_depot.Planner.Possession.add d.depot_possession ~site:site_name
          key
      end;
      staged_keys := (name, Chash.to_hex key) :: !staged_keys);
    Feam_obs.Metrics.incr "resolve.libraries_copied";
    Feam_obs.Trace.event "staged"
      ~attrs:[ ("library", Feam_obs.Span.Str name) ];
    staged := (name, path) :: !staged
  in
  List.iter
    (fun name ->
      match vet name with
      | Ok copy -> stage_copy name copy
      | Error r ->
        Feam_obs.Metrics.incr "resolve.failures"
          ~labels:[ ("reason", rejection_slug r) ];
        Feam_obs.Trace.event "rejected"
          ~attrs:
            [
              ("library", Feam_obs.Span.Str name);
              ("reason", Feam_obs.Span.Str (rejection_slug r));
            ];
        failed := (name, r) :: !failed)
    missing;
  (* Usable copies may themselves need staged dependencies that were not
     in [missing] (absent transitively); stage every vetted-usable copy
     whose name is not otherwise present. *)
  Hashtbl.iter
    (fun name verdict ->
      match verdict with
      | Ok copy
        when (not (List.mem_assoc name !staged))
             && not (present_at_target site env name) ->
        stage_copy name copy
      | _ -> ())
    memo;
  let env =
    if !staged <> [] then Env.prepend_path env "LD_LIBRARY_PATH" staging else env
  in
  Feam_obs.Trace.set_attr "staged" (Feam_obs.Span.Int (List.length !staged));
  Feam_obs.Trace.set_attr "failed" (Feam_obs.Span.Int (List.length !failed));
  let outcome =
    {
      staged = List.rev !staged;
      staged_keys = List.rev !staged_keys;
      failed = List.rev !failed;
      env;
    }
  in
  Feam_flightrec.Recorder.decision ~determinant:"resolve"
    ~verdict:(if outcome.failed = [] then "pass" else "fail")
    (fun () ->
      [
        ("missing", Json.List (List.map (fun m -> Json.Str m) missing));
        ( "staged",
          Json.List
            (List.map
               (fun (name, path) ->
                 Json.Obj [ ("library", Json.Str name); ("path", Json.Str path) ])
               outcome.staged) );
        ( "rejected",
          Json.List
            (List.map
               (fun (name, r) ->
                 Json.Obj
                   [
                     ("library", Json.Str name);
                     ("reason", Json.Str (rejection_slug r));
                     ("detail", Json.Str (rejection_to_string r));
                   ])
               outcome.failed) );
      ]);
  outcome
