(* Serialization of source-phase bundles.

   The paper's workflow has the user copy the source phase's output to
   each target site (§V); this module defines that artifact: a
   line-oriented text container with base64-embedded ELF images.  The
   format is self-contained — descriptions are stored as their primitive
   fields and the derived ones (required C library version, MPI
   identification) are recomputed on load, so a bundle written by one
   FEAM version parses under another as long as the primitives hold.

   A depot manifest (DESIGN §9) is the same container with content keys
   in place of the embedded images: one layout, one renderer and one
   assembler serve both kinds, which differ only in their magic line and
   in how a payload line is written and read. *)

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

(* -- the container ------------------------------------------------------ *)

(* A [copy] or [probe] section: the entry name, its provenance (a copy's
   origin path, a probe's stack slug), the declared size, the payload. *)
type 'p entry = { name : string; from : string; size : int; payload : 'p }

(* The layout both artifact kinds share, parameterised by the payload:
   embedded bytes in a bundle, a content key in a manifest. *)
type 'p layout = {
  created_at : string;
  unlocatable : string list;
  description : Description.t;
  binary : (int * 'p) option;  (* declared size, payload *)
  copies : (Description.t * 'p entry) list;
  probes : 'p entry list;
  discovery : Discovery.t;
}

(* How one artifact kind writes and reads its payload lines; a line with
   the other kind's payload key is rejected. *)
type 'p kind = {
  kind_magic : string;
  key : string;
  foreign : string;
  write : 'p -> string;
  read : string -> ('p, string) result;
}

let bundle_kind =
  {
    kind_magic = magic;
    key = "data";
    foreign = "object";
    write = Base64.encode;
    read = (fun s -> Result.map_error Base64.error_to_string (Base64.decode s));
  }

let manifest_kind =
  {
    kind_magic = manifest_magic;
    key = "object";
    foreign = "data";
    write = Chash.to_hex;
    read =
      (fun hex ->
        Option.to_result
          ~none:("malformed content key: " ^ hex)
          (Chash.of_hex hex));
  }

(* The keys of an entry section's name and provenance fields. *)
type section = { sec : string; name_key : string; from_key : string }

let copy_section = { sec = "copy"; name_key = "request"; from_key = "origin" }
let probe_section = { sec = "probe"; name_key = "name"; from_key = "stack" }

let render_layout kind (l : _ layout) =
  let buf = Buffer.create 65536 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let payload p = addf "%s: %s\n" kind.key (kind.write p) in
  let entry s desc e =
    addf "\n[%s]\n%s: %s\n%s: %s\ndeclared-size: %d\n" s.sec s.name_key e.name
      s.from_key e.from e.size;
    Option.iter (render_description buf "desc-") desc;
    payload e.payload
  in
  addf "%s\ncreated-at: %s\nunlocatable: %s\n" kind.kind_magic l.created_at
    (String.concat "," l.unlocatable);
  addf "\n[description]\n";
  render_description buf "" l.description;
  Option.iter
    (fun (size, p) ->
      addf "\n[binary]\ndeclared-size: %d\n" size;
      payload p)
    l.binary;
  List.iter (fun (desc, e) -> entry copy_section (Some desc) e) l.copies;
  List.iter (entry probe_section None) l.probes;
  addf "\n";
  render_discovery buf l.discovery;
  Buffer.contents buf

(* -- parsing ---------------------------------------------------------------- *)

type parse_error = { line : int; message : string }

let parse_error_to_string e =
  Printf.sprintf "parse error at line %d: %s" e.line e.message

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
  | _ -> err 1 (Printf.sprintf "missing %s magic" magic)

let ( let* ) = Result.bind

(* [all_ok f xs] maps [f] over [xs], stopping at the first error. *)
let rec all_ok f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = all_ok f xs in
    Ok (y :: ys)

let field fields key = List.assoc_opt key fields

let require fields key =
  Option.to_result ~none:("missing field " ^ key) (field fields key)
let fields_all fields key =
  List.filter_map (fun (k, v) -> if k = key then Some v else None) fields

(* Reject duplicate and traversing entry names across a parsed artifact's
   [copy] and [probe] sections, before any payload is decoded. *)
let check_entries sections =
  let check seen (sec, fields) =
    let* seen = seen in
    match
      List.find_opt (fun s -> s.sec = sec) [ copy_section; probe_section ]
    with
    | None -> Ok seen
    | Some s -> (
      match field fields s.name_key with
      | None -> Ok seen
      | Some name ->
        if name_traverses name then
          Error (Unsafe_entry { section = sec; name; issue = Traversal })
        else if List.mem (sec, name) seen then
          Error (Unsafe_entry { section = sec; name; issue = Duplicate })
        else Ok ((sec, name) :: seen))
  in
  Result.map ignore (List.fold_left check (Ok []) sections)

let opt_of = function "-" | "" -> None | s -> Some s

let split_list = function
  | "" -> []
  | s -> String.split_on_char ',' s

let parse_verneed entry =
  match String.index_opt entry '=' with
  | None -> Error ("malformed verneed entry: " ^ entry)
  | Some i ->
    Ok
      ( String.sub entry 0 i,
        String.sub entry (i + 1) (String.length entry - i - 1)
        |> String.split_on_char ';'
        |> List.filter (( <> ) "") )

(* Every field [render_description] writes is required; "-" stands for
   an absent optional value. *)
let parse_description ~prefix fields : (Description.t, string) result =
  let require key = require fields (prefix ^ key) in
  let optional key = Result.map opt_of (require key) in
  let* path = require "path" in
  let* file_format = require "format" in
  let* machine, elf_class =
    Option.to_result ~none:("unknown file format: " ^ file_format)
      (Objdump_parse.machine_of_format file_format)
  in
  let* soname = optional "soname" in
  let* needed = Result.map split_list (require "needed") in
  let* rpath = optional "rpath" in
  let* runpath = optional "runpath" in
  let* compiler_banner = optional "compiler" in
  let* build_os = optional "build-os" in
  let* verneeds =
    all_ok parse_verneed (fields_all fields (prefix ^ "verneed"))
  in
  Ok
    {
      Description.path;
      file_format;
      machine;
      elf_class;
      soname = Option.bind soname Soname.of_string;
      needed;
      rpath;
      runpath;
      verneeds;
      required_glibc = Description.required_glibc_of_verneeds verneeds;
      mpi = Mpi_ident.identify needed;
      provenance = { Objdump_parse.compiler_banner; build_os };
    }

let empty_discovery =
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

(* Section-level errors name their section. *)
let in_section sec = Result.map_error (Printf.sprintf "[%s]: %s" sec)

let read_size fields =
  let* v = require fields "declared-size" in
  Option.to_result ~none:("bad declared-size " ^ v) (int_of_string_opt v)

let read_payload kind fields =
  if field fields kind.foreign <> None then
    Error
      (Printf.sprintf "%s: line in a %s artifact" kind.foreign kind.kind_magic)
  else
    let* v = require fields kind.key in
    Result.map_error (Printf.sprintf "bad %s: %s" kind.key) (kind.read v)

let read_entry kind s fields =
  in_section s.sec
    (let* name = require fields s.name_key in
     let* size = read_size fields in
     let* payload = read_payload kind fields in
     let from = Option.value (field fields s.from_key) ~default:"" in
     Ok { name; from; size; payload })

(* Assemble the layout from checked sections: a missing or undecodable
   required field is [Malformed], naming its section. *)
let assemble kind sections =
  let header = Option.value (List.assoc_opt "" sections) ~default:[] in
  let header_field key ~default = Option.value (field header key) ~default in
  let first name = List.assoc_opt name sections in
  let all name =
    List.filter_map (fun (n, f) -> if n = name then Some f else None) sections
  in
  Result.map_error
    (fun m -> Malformed m)
    (let* desc_fields =
       Option.to_result ~none:"missing [description] section"
         (first "description")
     in
     let* description =
       in_section "description" (parse_description ~prefix:"" desc_fields)
     in
     let* binary =
       match first "binary" with
       | None -> Ok None
       | Some fields ->
         in_section "binary"
           (let* size = read_size fields in
            let* p = read_payload kind fields in
            Ok (Some (size, p)))
     in
     let* copies =
       all "copy"
       |> all_ok (fun fields ->
              let* e = read_entry kind copy_section fields in
              let* desc =
                in_section "copy" (parse_description ~prefix:"desc-" fields)
              in
              Ok (desc, e))
     in
     let* probes = all_ok (read_entry kind probe_section) (all "probe") in
     Ok
       {
         created_at = header_field "created-at" ~default:"unknown";
         unlocatable = split_list (header_field "unlocatable" ~default:"");
         description;
         binary;
         copies;
         probes;
         discovery =
           Option.fold ~none:empty_discovery ~some:parse_discovery
             (first "discovery");
       })

let parse_layout kind text =
  match sectionize ~magic:kind.kind_magic text with
  | Error e -> Error (Syntax e)
  | Ok sections ->
    let* () = check_entries sections in
    assemble kind sections

(* -- the two artifact kinds ------------------------------------------------ *)

let layout_of_bundle (b : Bundle.t) =
  {
    created_at = b.Bundle.created_at;
    unlocatable = b.Bundle.unlocatable;
    description = b.Bundle.binary_description;
    binary =
      Option.map
        (fun image ->
          (b.Bundle.binary_declared_size, Feam_elf.Reader.image_bytes image))
        b.Bundle.binary_image;
    copies =
      List.map
        (fun (c : Bdc.library_copy) ->
          ( c.Bdc.copy_description,
            { name = c.Bdc.copy_request; from = c.Bdc.copy_origin_path;
              size = c.Bdc.copy_declared_size;
              payload = Feam_elf.Reader.image_bytes c.Bdc.copy_image } ))
        b.Bundle.copies;
    probes =
      List.map
        (fun (p : Bundle.probe) ->
          { name = p.Bundle.probe_name; from = p.Bundle.probe_stack_slug;
            size = p.Bundle.probe_declared_size;
            payload = Feam_elf.Reader.image_bytes p.Bundle.probe_image })
        b.Bundle.probes;
    discovery = b.Bundle.source_discovery;
  }

let bundle_of_layout l : Bundle.t =
  {
    Bundle.created_at = l.created_at;
    binary_description = l.description;
    binary_image =
      Option.map (fun (_, bytes) -> Feam_elf.Reader.image bytes) l.binary;
    binary_declared_size = Option.fold ~none:0 ~some:fst l.binary;
    copies =
      List.map
        (fun (desc, e) ->
          { Bdc.copy_request = e.name; copy_origin_path = e.from;
            copy_image = Feam_elf.Reader.image e.payload;
            copy_declared_size = e.size;
            copy_description = desc })
        l.copies;
    unlocatable = l.unlocatable;
    probes =
      List.map
        (fun e ->
          { Bundle.probe_name = e.name;
            probe_image = Feam_elf.Reader.image e.payload;
            probe_stack_slug = e.from; probe_declared_size = e.size })
        l.probes;
    source_discovery = l.discovery;
  }

let layout_of_manifest (m : Bundle_manifest.t) =
  let open Bundle_manifest in
  {
    created_at = m.man_created_at;
    unlocatable = m.man_unlocatable;
    description = m.man_description;
    binary = Option.map (fun (key, size) -> (size, key)) m.man_binary;
    copies =
      List.map
        (fun e ->
          ( e.me_description,
            { name = e.me_request; from = e.me_origin; size = e.me_size;
              payload = e.me_key } ))
        m.man_entries;
    probes =
      List.map
        (fun p ->
          { name = p.mp_name; from = p.mp_stack; size = p.mp_size;
            payload = p.mp_key })
        m.man_probes;
    discovery = m.man_discovery;
  }

let manifest_of_layout l : Bundle_manifest.t =
  {
    Bundle_manifest.man_created_at = l.created_at;
    man_description = l.description;
    man_binary = Option.map (fun (size, key) -> (key, size)) l.binary;
    man_entries =
      List.map
        (fun (desc, e) ->
          { Bundle_manifest.me_request = e.name; me_key = e.payload;
            me_size = e.size; me_origin = e.from; me_description = desc })
        l.copies;
    man_unlocatable = l.unlocatable;
    man_probes =
      List.map
        (fun e ->
          { Bundle_manifest.mp_name = e.name; mp_key = e.payload;
            mp_size = e.size; mp_stack = e.from })
        l.probes;
    man_discovery = l.discovery;
  }

let render b = render_layout bundle_kind (layout_of_bundle b)
let render_manifest m = render_layout manifest_kind (layout_of_manifest m)
let parse text = Result.map bundle_of_layout (parse_layout bundle_kind text)

let parse_manifest text =
  Result.map manifest_of_layout (parse_layout manifest_kind text)
