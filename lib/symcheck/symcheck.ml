(* Whole-closure symbol resolution: a simulation of ld.so's
   breadth-first binding over a link scope.

   The library-level determinants (DT_NEEDED presence, soname majors,
   verneed-vs-verdef) ask whether the right *objects* are there; this
   pass asks whether the objects actually *export what the closure
   imports*.  The gap between the two is precisely where the
   soname-major heuristic is unsound: a library can keep its soname
   major yet drop an exported symbol, and only the symbol-level walk
   notices.

   Soundness policy: a miss is only [miss_definitive] when it cannot be
   explained by an object absent from the scope — a versioned import is
   checked only when the verneed-attributed provider is present, and an
   unversioned import only when the whole scope is closed under
   DT_NEEDED (modulo [ignore_needed]).  Everything else is recorded but
   advisory, so the pass never shouts about holes a library-level rule
   already owns. *)

open Feam_elf

type member = { mb_label : string; mb_spec : Spec.t }

type binding = {
  bd_importer : string;
  bd_symbol : string;
  bd_version : string option;
  bd_provider : string;
  bd_provider_pos : int;  (* provider's position in scope order *)
}

type miss = {
  miss_importer : string;
  miss_symbol : string;
  miss_version : string option;
  miss_binding : Spec.sym_binding;
  miss_expected : string option;
      (* the present scope member consulted for the version; [None] for
         unversioned imports, where any member could provide *)
  miss_definitive : bool;
      (* the miss cannot be explained by an absent scope member *)
}

type interposition = {
  ip_symbol : string;
  ip_winner : string;  (* scope member whose definition binds *)
  ip_shadowed : string list;  (* later members also defining the name *)
}

type t = {
  scope : member list;  (* binding scope, breadth-first load order *)
  complete : bool;  (* scope closed under DT_NEEDED (modulo ignores) *)
  bindings : binding list;
  unresolved_strong : miss list;
  unresolved_weak : miss list;
  interpositions : interposition list;
}

(* The scope member ld.so would consult for [name]: the first, in load
   order, loaded under that label or claiming it by DT_SONAME — the
   same convention as {!Feam_dynlinker.Resolve.consulted_provider}. *)
let find_member scope name =
  let rec go pos = function
    | [] -> None
    | m :: rest ->
      if m.mb_label = name || m.mb_spec.Spec.soname = Some name then
        Some (pos, m)
      else go (pos + 1) rest
  in
  go 0 scope

let scope_complete ~ignore_needed scope =
  List.for_all
    (fun m ->
      List.for_all
        (fun n -> ignore_needed n || find_member scope n <> None)
        m.mb_spec.Spec.needed)
    scope

(* name -> definitions in scope order. *)
let definition_index scope =
  let tbl : (string, (int * member * Spec.dynsym) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iteri
    (fun pos m ->
      List.iter
        (fun (d : Spec.dynsym) ->
          if d.Spec.sym_defined then
            let prev =
              Option.value (Hashtbl.find_opt tbl d.Spec.sym_name) ~default:[]
            in
            Hashtbl.replace tbl d.Spec.sym_name (prev @ [ (pos, m, d) ]))
        m.mb_spec.Spec.dynsyms)
    scope;
  tbl

(* First definition that satisfies one import.  An unversioned
   reference binds the first definition of the name; a versioned
   reference needs a matching verdef — or a provider that predates
   symbol versioning entirely (no verdefs at all), which ld.so accepts
   with a warning. *)
let bind defs (s : Spec.dynsym) =
  let candidates =
    Option.value (Hashtbl.find_opt defs s.Spec.sym_name) ~default:[]
  in
  (* Scope-table telemetry: a hit means the index answered the lookup
     without rescanning the closure's symbol tables. *)
  Feam_obs.Metrics.incr
    (if candidates = [] then "symcheck.defs_lookup.miss"
     else "symcheck.defs_lookup.hit");
  match s.Spec.sym_version with
  | None -> ( match candidates with [] -> None | c :: _ -> Some c)
  | Some v ->
    List.find_opt
      (fun (_, provider, (d : Spec.dynsym)) ->
        d.Spec.sym_version = Some v || provider.mb_spec.Spec.verdefs = [])
      candidates

(* The file a versioned reference is attributed to: the importer's
   first verneed block listing the version. *)
let expected_file (spec : Spec.t) v =
  List.find_opt (fun vn -> List.mem v vn.Spec.vn_versions) spec.Spec.verneeds
  |> Option.map (fun vn -> vn.Spec.vn_file)

let interpositions_of defs =
  Hashtbl.fold
    (fun name entries acc ->
      let providers =
        List.fold_left
          (fun seen (_, m, _) ->
            if List.mem m.mb_label seen then seen else seen @ [ m.mb_label ])
          [] entries
      in
      match providers with
      | winner :: (_ :: _ as rest) ->
        { ip_symbol = name; ip_winner = winner; ip_shadowed = rest } :: acc
      | _ -> acc)
    defs []
  |> List.sort (fun a b -> String.compare a.ip_symbol b.ip_symbol)

(* The verdict as a flight-recorder decision. *)
let journal result =
  let open Feam_util in
  let miss_json m =
    Json.Obj
      [
        ("importer", Json.Str m.miss_importer);
        ("symbol", Json.Str m.miss_symbol);
        ( "version",
          match m.miss_version with Some v -> Json.Str v | None -> Json.Null
        );
        ( "expected",
          match m.miss_expected with Some p -> Json.Str p | None -> Json.Null
        );
        ("definitive", Json.Bool m.miss_definitive);
      ]
  in
  Feam_flightrec.Recorder.decision ~determinant:"symcheck"
    ~verdict:(if result.unresolved_strong = [] then "pass" else "fail")
    (fun () ->
      [
        ( "scope",
          Json.List (List.map (fun m -> Json.Str m.mb_label) result.scope) );
        ("complete", Json.Bool result.complete);
        ("bindings", Json.Int (List.length result.bindings));
        ( "unresolved_strong",
          Json.List (List.map miss_json result.unresolved_strong) );
        ( "unresolved_weak",
          Json.List (List.map miss_json result.unresolved_weak) );
        ( "interpositions",
          Json.List
            (List.map
               (fun ip ->
                 Json.Obj
                   [
                     ("symbol", Json.Str ip.ip_symbol);
                     ("winner", Json.Str ip.ip_winner);
                     ( "shadowed",
                       Json.List
                         (List.map (fun s -> Json.Str s) ip.ip_shadowed) );
                   ])
               result.interpositions) );
      ])

let run ?(ignore_needed = fun _ -> false) scope =
  Feam_obs.Trace.with_span "symcheck.run" @@ fun () ->
  let defs = definition_index scope in
  let complete = scope_complete ~ignore_needed scope in
  let bindings = ref [] in
  let strong = ref [] in
  let weak = ref [] in
  let record m (s : Spec.dynsym) expected definitive =
    let miss =
      {
        miss_importer = m.mb_label;
        miss_symbol = s.Spec.sym_name;
        miss_version = s.Spec.sym_version;
        miss_binding = s.Spec.sym_binding;
        miss_expected = expected;
        miss_definitive = definitive;
      }
    in
    match s.Spec.sym_binding with
    | Spec.Weak -> weak := miss :: !weak
    | Spec.Global -> strong := miss :: !strong
  in
  List.iter
    (fun m ->
      List.iter
        (fun (s : Spec.dynsym) ->
          match bind defs s with
          | Some (pos, p, _) ->
            bindings :=
              {
                bd_importer = m.mb_label;
                bd_symbol = s.Spec.sym_name;
                bd_version = s.Spec.sym_version;
                bd_provider = p.mb_label;
                bd_provider_pos = pos;
              }
              :: !bindings
          | None -> (
            match s.Spec.sym_version with
            | Some v -> (
              match expected_file m.mb_spec v with
              | None ->
                (* versioned reference with no verneed attribution:
                   treated like an unversioned one *)
                record m s None complete
              | Some file -> (
                match find_member scope file with
                | None ->
                  (* the attributed provider is absent: a library-level
                     rule's finding, not a symbol-level one *)
                  ()
                | Some (_, p) -> record m s (Some p.mb_label) true))
            | None -> record m s None complete))
        (Spec.imports m.mb_spec))
    scope;
  let unresolved_strong = List.rev !strong in
  let unresolved_weak = List.rev !weak in
  if unresolved_strong <> [] then
    Feam_obs.Metrics.incr
      ~by:(List.length unresolved_strong)
      ~labels:[ ("binding", "global") ]
      "symcheck.unresolved";
  if unresolved_weak <> [] then
    Feam_obs.Metrics.incr
      ~by:(List.length unresolved_weak)
      ~labels:[ ("binding", "weak") ]
      "symcheck.unresolved";
  Feam_obs.Trace.set_attr "scope" (Feam_obs.Span.Int (List.length scope));
  Feam_obs.Trace.set_attr "unresolved"
    (Feam_obs.Span.Int (List.length unresolved_strong));
  let result =
    {
      scope;
      complete;
      bindings = List.rev !bindings;
      unresolved_strong;
      unresolved_weak;
      interpositions = interpositions_of defs;
    }
  in
  journal result;
  result

let of_resolve (r : Feam_dynlinker.Resolve.t) =
  let root =
    { mb_label = "a.out"; mb_spec = r.Feam_dynlinker.Resolve.root_spec }
  in
  let libs =
    List.map
      (fun (l : Feam_dynlinker.Resolve.resolved_lib) ->
        {
          mb_label = l.Feam_dynlinker.Resolve.lib_name;
          mb_spec = l.Feam_dynlinker.Resolve.lib_spec;
        })
      r.Feam_dynlinker.Resolve.resolved
  in
  run (root :: libs)

(* The validator's currency: definitive strong misses, each of which
   refutes the library-level (soname) acceptance of the closure — the
   objects are all there, the symbols are not. *)
let overturns t = List.filter (fun m -> m.miss_definitive) t.unresolved_strong

let symbol_ref symbol version =
  match version with None -> symbol | Some v -> symbol ^ "@" ^ v

let miss_to_string m =
  let where =
    match m.miss_expected with
    | Some p -> Printf.sprintf " (consulted %s)" p
    | None -> ""
  in
  Printf.sprintf "%s: undefined %s symbol %s%s%s" m.miss_importer
    (String.lowercase_ascii (Spec.binding_to_string m.miss_binding))
    (symbol_ref m.miss_symbol m.miss_version)
    where
    (if m.miss_definitive then "" else " [scope incomplete]")

let interposition_to_string i =
  Printf.sprintf "%s: defined by %s, shadowing %s" i.ip_symbol i.ip_winner
    (String.concat ", " i.ip_shadowed)
