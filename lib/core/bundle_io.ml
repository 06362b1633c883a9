(* Serialization of source-phase bundles.

   The paper's workflow has the user copy the source phase's output to
   each target site (§V); this module defines that artifact: a
   line-oriented text container with base64-embedded ELF images.  The
   format is self-contained — descriptions are stored as their primitive
   fields and the derived ones (required C library version, MPI
   identification) are recomputed on load, so a bundle written by one
   FEAM version parses under another as long as the primitives hold. *)

open Feam_util

let magic = "FEAM-BUNDLE 1"
let manifest_magic = "FEAM-MANIFEST 1"

(* -- rendering ------------------------------------------------------------ *)

let opt_field = function None -> "-" | Some s -> s

let render_description buf prefix (d : Description.t) =
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%spath: %s\n" prefix d.Description.path;
  addf "%sformat: %s\n" prefix d.Description.file_format;
  addf "%ssoname: %s\n" prefix
    (opt_field (Option.map Soname.to_string d.Description.soname));
  addf "%sneeded: %s\n" prefix (String.concat "," d.Description.needed);
  addf "%srpath: %s\n" prefix (opt_field d.Description.rpath);
  addf "%srunpath: %s\n" prefix (opt_field d.Description.runpath);
  List.iter
    (fun (file, versions) ->
      addf "%sverneed: %s=%s\n" prefix file (String.concat ";" versions))
    d.Description.verneeds;
  addf "%scompiler: %s\n" prefix
    (opt_field d.Description.provenance.Objdump_parse.compiler_banner);
  addf "%sbuild-os: %s\n" prefix
    (opt_field d.Description.provenance.Objdump_parse.build_os)

let render_discovery buf (disc : Discovery.t) =
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "[discovery]\n";
  addf "env-type: %s\n"
    (match disc.Discovery.env_type with
    | `Guaranteed -> "guaranteed"
    | `Target -> "target");
  addf "machine: %s\n"
    (opt_field (Option.map Feam_elf.Types.machine_uname disc.Discovery.machine));
  addf "os: %s\n" (opt_field disc.Discovery.os);
  addf "kernel: %s\n" (opt_field disc.Discovery.kernel);
  addf "glibc: %s\n"
    (opt_field (Option.map Version.to_string disc.Discovery.glibc));
  List.iter
    (fun s -> addf "stack: %s\n" s.Discovery.slug)
    disc.Discovery.stacks;
  addf "current-stack: %s\n"
    (opt_field (Option.map (fun s -> s.Discovery.slug) disc.Discovery.current_stack))

(* [render bundle] serializes a bundle to its textual artifact. *)
let render (b : Bundle.t) : string =
  let buf = Buffer.create 65536 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%s\n" magic;
  addf "created-at: %s\n" b.Bundle.created_at;
  addf "unlocatable: %s\n" (String.concat "," b.Bundle.unlocatable);
  addf "\n[description]\n";
  render_description buf "" b.Bundle.binary_description;
  (match b.Bundle.binary_bytes with
  | Some bytes ->
    addf "\n[binary]\n";
    addf "declared-size: %d\n" b.Bundle.binary_declared_size;
    addf "data: %s\n" (Base64.encode bytes)
  | None -> ());
  List.iter
    (fun (c : Bdc.library_copy) ->
      addf "\n[copy]\n";
      addf "request: %s\n" c.Bdc.copy_request;
      addf "origin: %s\n" c.Bdc.copy_origin_path;
      addf "declared-size: %d\n" c.Bdc.copy_declared_size;
      render_description buf "desc-" c.Bdc.copy_description;
      addf "data: %s\n" (Base64.encode c.Bdc.copy_bytes))
    b.Bundle.copies;
  List.iter
    (fun (p : Bundle.probe) ->
      addf "\n[probe]\n";
      addf "name: %s\n" p.Bundle.probe_name;
      addf "stack: %s\n" p.Bundle.probe_stack_slug;
      addf "declared-size: %d\n" p.Bundle.probe_declared_size;
      addf "data: %s\n" (Base64.encode p.Bundle.probe_bytes))
    b.Bundle.probes;
  addf "\n";
  render_discovery buf b.Bundle.source_discovery;
  Buffer.contents buf

(* [render_manifest m] serializes a depot-backed manifest: the same
   container as a bundle, but every payload is an `object:` content key
   resolved against a depot instead of embedded `data:`. *)
let render_manifest (m : Bundle_manifest.t) : string =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let hex = Chash.to_hex in
  addf "%s\n" manifest_magic;
  addf "created-at: %s\n" m.Bundle_manifest.man_created_at;
  addf "unlocatable: %s\n" (String.concat "," m.Bundle_manifest.man_unlocatable);
  addf "\n[description]\n";
  render_description buf "" m.Bundle_manifest.man_description;
  (match m.Bundle_manifest.man_binary with
  | Some (key, size) ->
    addf "\n[binary]\n";
    addf "declared-size: %d\n" size;
    addf "object: %s\n" (hex key)
  | None -> ());
  List.iter
    (fun (e : Bundle_manifest.entry) ->
      addf "\n[copy]\n";
      addf "request: %s\n" e.Bundle_manifest.me_request;
      addf "origin: %s\n" e.Bundle_manifest.me_origin;
      addf "declared-size: %d\n" e.Bundle_manifest.me_size;
      render_description buf "desc-" e.Bundle_manifest.me_description;
      addf "object: %s\n" (hex e.Bundle_manifest.me_key))
    m.Bundle_manifest.man_entries;
  List.iter
    (fun (p : Bundle_manifest.probe_ref) ->
      addf "\n[probe]\n";
      addf "name: %s\n" p.Bundle_manifest.mp_name;
      addf "stack: %s\n" p.Bundle_manifest.mp_stack;
      addf "declared-size: %d\n" p.Bundle_manifest.mp_size;
      addf "object: %s\n" (hex p.Bundle_manifest.mp_key))
    m.Bundle_manifest.man_probes;
  addf "\n";
  render_discovery buf m.Bundle_manifest.man_discovery;
  Buffer.contents buf

(* -- parsing ---------------------------------------------------------------- *)

type parse_error = { line : int; message : string }

let parse_error_to_string e =
  Printf.sprintf "bundle parse error at line %d: %s" e.line e.message

(* What makes an entry name unsafe to load (DESIGN §9): [Duplicate]
   names collide in the staging directory, [Traversal] names escape it
   (the target phase stages entries at [staging ^ "/" ^ name]). *)
type entry_issue = Duplicate | Traversal

let entry_issue_to_string = function
  | Duplicate -> "duplicate entry name"
  | Traversal -> "path traversal in entry name"

type load_error =
  | Syntax of parse_error
  | Malformed of string
  | Unsafe_entry of { section : string; name : string; issue : entry_issue }

let load_error_to_string = function
  | Syntax e -> parse_error_to_string e
  | Malformed m -> m
  | Unsafe_entry { section; name; issue } ->
    Printf.sprintf "unsafe [%s] entry %S: %s" section name
      (entry_issue_to_string issue)

(* A name with a ".." path component escapes the staging directory when
   the target phase concatenates it onto the staging root. *)
let name_traverses name =
  String.split_on_char '/' name |> List.exists (( = ) "..")

(* Cut the text into sections: a header block plus "[name]" blocks of
   (key, value) pairs, preserving repeated keys in order. *)
let sectionize ~magic text =
  let lines = String.split_on_char '\n' text in
  let err line message = Error { line; message } in
  let rec go lineno current sections = function
    | [] -> Ok (List.rev (current :: sections))
    | line :: rest ->
      let lineno = lineno + 1 in
      let line = String.trim line in
      if line = "" then go lineno current sections rest
      else if String.length line > 1 && line.[0] = '[' then
        if line.[String.length line - 1] <> ']' then
          err lineno "malformed section header"
        else
          let name = String.sub line 1 (String.length line - 2) in
          go lineno (name, []) (current :: sections) rest
      else
        match String.index_opt line ':' with
        | None -> err lineno ("expected 'key: value', got " ^ line)
        | Some i ->
          let key = String.trim (String.sub line 0 i) in
          let value =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          let name, fields = current in
          go lineno (name, (key, value) :: fields) sections rest
  in
  match lines with
  | first :: rest when String.trim first = magic -> (
    match go 1 ("", []) [] rest with
    | Ok sections ->
      Ok (List.map (fun (name, fields) -> (name, List.rev fields)) sections)
    | Error _ as e -> e)
  | _ -> err 1 "missing FEAM-BUNDLE magic"

let field fields key = List.assoc_opt key fields
let fields_all fields key =
  List.filter_map (fun (k, v) -> if k = key then Some v else None) fields

(* Reject duplicate and traversing entry names across a parsed artifact's
   [copy] and [probe] sections, before any payload is decoded. *)
let check_entries sections =
  let check section key seen fields =
    match field fields key with
    | None -> Ok seen
    | Some name ->
      if name_traverses name then
        Error (Unsafe_entry { section; name; issue = Traversal })
      else if List.mem name seen then
        Error (Unsafe_entry { section; name; issue = Duplicate })
      else Ok (name :: seen)
  in
  let rec go seen_copies seen_probes = function
    | [] -> Ok ()
    | ("copy", fields) :: rest -> (
      match check "copy" "request" seen_copies fields with
      | Error _ as e -> e
      | Ok seen -> go seen seen_probes rest)
    | ("probe", fields) :: rest -> (
      match check "probe" "name" seen_probes fields with
      | Error _ as e -> e
      | Ok seen -> go seen_copies seen rest)
    | _ :: rest -> go seen_copies seen_probes rest
  in
  go [] [] sections

let opt_of = function "-" | "" -> None | s -> Some s

let split_list = function
  | "" -> []
  | s -> String.split_on_char ',' s

let parse_description ~prefix fields : (Description.t, string) result =
  let get key = field fields (prefix ^ key) in
  let require key =
    match get key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %s%s" prefix key)
  in
  match (require "path", require "format", require "needed") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok path, Ok file_format, Ok needed -> (
    match Objdump_parse.machine_of_format file_format with
    | None -> Error ("unknown file format: " ^ file_format)
    | Some (machine, elf_class) ->
      let verneeds =
        fields_all fields (prefix ^ "verneed")
        |> List.filter_map (fun entry ->
               match String.index_opt entry '=' with
               | None -> None
               | Some i ->
                 let file = String.sub entry 0 i in
                 let versions =
                   String.sub entry (i + 1) (String.length entry - i - 1)
                   |> String.split_on_char ';'
                   |> List.filter (( <> ) "")
                 in
                 Some (file, versions))
      in
      let needed = split_list needed in
      Ok
        {
          Description.path;
          file_format;
          machine;
          elf_class;
          soname = Option.bind (Option.bind (get "soname") opt_of) Soname.of_string;
          needed;
          rpath = Option.bind (get "rpath") opt_of;
          runpath = Option.bind (get "runpath") opt_of;
          verneeds;
          required_glibc = Description.required_glibc_of_verneeds verneeds;
          mpi = Mpi_ident.identify needed;
          provenance =
            {
              Objdump_parse.compiler_banner =
                Option.bind (get "compiler") opt_of;
              build_os = Option.bind (get "build-os") opt_of;
            };
        })

let parse_data fields =
  match field fields "data" with
  | None -> Error "missing data field"
  | Some b64 -> (
    match Base64.decode b64 with
    | Ok bytes -> Ok bytes
    | Error e -> Error (Base64.error_to_string e))

let parse_int_field fields key ~default =
  match field fields key with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)

let parse_discovery fields : Discovery.t =
  let get key = Option.bind (field fields key) opt_of in
  let machine = Option.bind (get "machine") Feam_elf.Types.machine_of_uname in
  let stack_of_slug slug =
    Discovery.parse_stack_slug ~via:Discovery.Modules slug
  in
  {
    Discovery.env_type =
      (match field fields "env-type" with
      | Some "guaranteed" -> `Guaranteed
      | _ -> `Target);
    machine;
    elf_class = Option.map Feam_elf.Types.machine_class machine;
    os = get "os";
    kernel = get "kernel";
    glibc = Option.bind (get "glibc") Version.of_string;
    stacks = fields_all fields "stack" |> List.filter_map stack_of_slug;
    current_stack = Option.bind (get "current-stack") stack_of_slug;
  }

(* Assemble a bundle from checked sections. *)
let assemble_bundle sections : (Bundle.t, string) result =
    let header =
      match List.assoc_opt "" sections with Some f -> f | None -> []
    in
    let find_section name =
      List.filter_map
        (fun (n, fields) -> if n = name then Some fields else None)
        sections
    in
    (match find_section "description" with
    | [] -> Error "missing [description] section"
    | desc_fields :: _ -> (
      match parse_description ~prefix:"" desc_fields with
      | Error e -> Error e
      | Ok binary_description ->
        let binary_bytes, binary_declared_size =
          match find_section "binary" with
          | fields :: _ -> (
            match parse_data fields with
            | Ok bytes -> (Some bytes, parse_int_field fields "declared-size" ~default:0)
            | Error _ -> (None, 0))
          | [] -> (None, 0)
        in
        let copies =
          find_section "copy"
          |> List.filter_map (fun fields ->
                 match
                   ( field fields "request",
                     parse_description ~prefix:"desc-" fields,
                     parse_data fields )
                 with
                 | Some request, Ok description, Ok bytes ->
                   Some
                     {
                       Bdc.copy_request = request;
                       copy_origin_path =
                         Option.value (field fields "origin") ~default:"";
                       copy_bytes = bytes;
                       copy_declared_size =
                         parse_int_field fields "declared-size"
                           ~default:(String.length bytes);
                       copy_description = description;
                     }
                 | _ -> None)
        in
        let probes =
          find_section "probe"
          |> List.filter_map (fun fields ->
                 match (field fields "name", parse_data fields) with
                 | Some name, Ok bytes ->
                   Some
                     {
                       Bundle.probe_name = name;
                       probe_bytes = bytes;
                       probe_stack_slug =
                         Option.value (field fields "stack") ~default:"";
                       probe_declared_size =
                         parse_int_field fields "declared-size"
                           ~default:(String.length bytes);
                     }
                 | _ -> None)
        in
        let source_discovery =
          match find_section "discovery" with
          | fields :: _ -> parse_discovery fields
          | [] ->
            {
              Discovery.env_type = `Guaranteed;
              machine = None;
              elf_class = None;
              os = None;
              kernel = None;
              glibc = None;
              stacks = [];
              current_stack = None;
            }
        in
        Ok
          {
            Bundle.created_at =
              Option.value (field header "created-at") ~default:"unknown";
            binary_description;
            binary_bytes;
            binary_declared_size;
            copies;
            unlocatable =
              split_list (Option.value (field header "unlocatable") ~default:"");
            probes;
            source_discovery;
          }))

(* [parse_checked text] reads a bundle artifact back, rejecting unsafe
   entry names (duplicates, path traversal) with a typed error. *)
let parse_checked (text : string) : (Bundle.t, load_error) result =
  match sectionize ~magic text with
  | Error e -> Error (Syntax e)
  | Ok sections -> (
    match check_entries sections with
    | Error _ as e -> e
    | Ok () -> (
      match assemble_bundle sections with
      | Ok b -> Ok b
      | Error m -> Error (Malformed m)))

(* [parse text] is {!parse_checked} with errors rendered to strings. *)
let parse (text : string) : (Bundle.t, string) result =
  Result.map_error load_error_to_string (parse_checked text)

(* -- manifest parsing ----------------------------------------------------- *)

let parse_key fields =
  match field fields "object" with
  | None -> Error "missing object field"
  | Some hex -> (
    match Chash.of_hex hex with
    | Some key -> Ok key
    | None -> Error ("malformed content key: " ^ hex))

(* [parse_manifest_checked text] reads a depot-backed manifest artifact,
   applying the same entry-name safety checks as bundles. *)
let parse_manifest_checked (text : string) :
    (Bundle_manifest.t, load_error) result =
  match sectionize ~magic:manifest_magic text with
  | Error e -> Error (Syntax e)
  | Ok sections -> (
    match check_entries sections with
    | Error _ as e -> e
    | Ok () ->
      let header =
        match List.assoc_opt "" sections with Some f -> f | None -> []
      in
      let find_section name =
        List.filter_map
          (fun (n, fields) -> if n = name then Some fields else None)
          sections
      in
      let ( let* ) = Result.bind in
      let result =
        let* desc_fields =
          match find_section "description" with
          | [] -> Error "missing [description] section"
          | fields :: _ -> Ok fields
        in
        let* man_description = parse_description ~prefix:"" desc_fields in
        let* man_binary =
          match find_section "binary" with
          | [] -> Ok None
          | fields :: _ ->
            let* key = parse_key fields in
            Ok (Some (key, parse_int_field fields "declared-size" ~default:0))
        in
        let* man_entries =
          List.fold_left
            (fun acc fields ->
              let* acc = acc in
              let* request =
                match field fields "request" with
                | Some r -> Ok r
                | None -> Error "copy section missing request field"
              in
              let* description = parse_description ~prefix:"desc-" fields in
              let* key = parse_key fields in
              Ok
                ({
                   Bundle_manifest.me_request = request;
                   me_key = key;
                   me_size = parse_int_field fields "declared-size" ~default:0;
                   me_origin = Option.value (field fields "origin") ~default:"";
                   me_description = description;
                 }
                 :: acc))
            (Ok [])
            (find_section "copy")
        in
        let* man_probes =
          List.fold_left
            (fun acc fields ->
              let* acc = acc in
              let* name =
                match field fields "name" with
                | Some n -> Ok n
                | None -> Error "probe section missing name field"
              in
              let* key = parse_key fields in
              Ok
                ({
                   Bundle_manifest.mp_name = name;
                   mp_key = key;
                   mp_size = parse_int_field fields "declared-size" ~default:0;
                   mp_stack = Option.value (field fields "stack") ~default:"";
                 }
                 :: acc))
            (Ok [])
            (find_section "probe")
        in
        let man_discovery =
          match find_section "discovery" with
          | fields :: _ -> parse_discovery fields
          | [] ->
            {
              Discovery.env_type = `Guaranteed;
              machine = None;
              elf_class = None;
              os = None;
              kernel = None;
              glibc = None;
              stacks = [];
              current_stack = None;
            }
        in
        Ok
          {
            Bundle_manifest.man_created_at =
              Option.value (field header "created-at") ~default:"unknown";
            man_description;
            man_binary;
            man_entries = List.rev man_entries;
            man_unlocatable =
              split_list (Option.value (field header "unlocatable") ~default:"");
            man_probes = List.rev man_probes;
            man_discovery;
          }
      in
      Result.map_error (fun m -> Malformed m) result)

let parse_manifest (text : string) : (Bundle_manifest.t, string) result =
  Result.map_error load_error_to_string (parse_manifest_checked text)
