(* The content-addressed library store (the "depot").

   Objects are ELF payloads keyed by {!Chash.of_bytes}; alongside each
   payload lives a metadata sidecar (soname, version, provider site,
   origin path, declared size, dependency keys).  The same libmpi/libc
   image captured by hundreds of source phases interns to one object —
   the first capture is a miss that stores the bytes, every later one
   is a hit that stores nothing.

   Lifetime is managed by mark-and-sweep GC: mark from caller-supplied
   roots, following each object's recorded dependency keys, then sweep
   everything unmarked.  Listings keep a pin-count column, always 0:
   nothing pins an object.

   All listings are emitted in key order so two stores built from the
   same captures render byte-identically (the CI determinism job diffs
   exactly this). *)

module Chash = Feam_util.Chash
module Json = Feam_util.Json

type meta = {
  m_soname : string option; (* DT_SONAME, when the payload declares one *)
  m_version : string option; (* soname version component, rendered *)
  m_provider : string option; (* site the capture came from *)
  m_origin : string; (* path at the provider site *)
  m_size : int; (* declared on-disk size, for transfer accounting *)
  m_deps : string list; (* content keys of dependencies, hex *)
}

let meta ?soname ?version ?provider ?(origin = "") ?(deps = []) ~size () =
  {
    m_soname = soname;
    m_version = version;
    m_provider = provider;
    m_origin = origin;
    m_size = size;
    m_deps = deps;
  }

type entry = {
  e_key : Chash.t;
  e_bytes : string;
  mutable e_meta : meta;
}

type t = { objects : (string, entry) Hashtbl.t }

type status = Hit | Miss

let status_to_string = function Hit -> "hit" | Miss -> "miss"

let create () = { objects = Hashtbl.create 64 }

let find t key = Hashtbl.find_opt t.objects (Chash.to_hex key)
let mem t key = Hashtbl.mem t.objects (Chash.to_hex key)
let object_count t = Hashtbl.length t.objects

let total_bytes t =
  Hashtbl.fold (fun _ e acc -> acc + e.e_meta.m_size) t.objects 0

let journal_intern key status (m : meta) =
  Feam_flightrec.Recorder.evidence ~stage:"depot" ~kind:"intern"
    (fun () ->
      [
        ("key", Json.Str (Chash.to_hex key));
        ("status", Json.Str (status_to_string status));
        ("size", Json.Int m.m_size);
        ( "soname",
          match m.m_soname with Some s -> Json.Str s | None -> Json.Null );
      ])

(* [intern t ~meta image] — add a payload, or recognize it, keyed by the
   image handle's cached content key.  On a hit the stored sidecar wins;
   the new capture's metadata is only used to fill fields the stored one
   lacks (a later capture may know the provider or the dependency keys
   when the first did not). *)
let intern t ~meta:m image =
  let key = Feam_elf.Reader.image_key image in
  let hex = Chash.to_hex key in
  match Hashtbl.find_opt t.objects hex with
  | Some e ->
    let merged =
      {
        m_soname =
          (match e.e_meta.m_soname with Some _ as s -> s | None -> m.m_soname);
        m_version =
          (match e.e_meta.m_version with Some _ as s -> s | None -> m.m_version);
        m_provider =
          (match e.e_meta.m_provider with
          | Some _ as s -> s
          | None -> m.m_provider);
        m_origin = (if e.e_meta.m_origin = "" then m.m_origin else e.e_meta.m_origin);
        m_size = e.e_meta.m_size;
        m_deps = (if e.e_meta.m_deps = [] then m.m_deps else e.e_meta.m_deps);
      }
    in
    e.e_meta <- merged;
    Feam_obs.Metrics.incr "depot.hit";
    journal_intern key Hit merged;
    (Hit, key)
  | None ->
    let bytes = Feam_elf.Reader.image_bytes image in
    let m = { m with m_size = (if m.m_size = 0 then String.length bytes else m.m_size) } in
    Hashtbl.add t.objects hex { e_key = key; e_bytes = bytes; e_meta = m };
    Feam_obs.Metrics.incr "depot.miss";
    journal_intern key Miss m;
    (Miss, key)

(* -- mark-and-sweep GC --------------------------------------------------- *)

type gc_report = { swept : Chash.t list; kept : int; swept_bytes : int }

(* Mark from [roots], following recorded
   dependency keys; sweep the rest.  Unknown dependency keys are
   ignored (the dependency was never captured — nothing to keep). *)
let gc ?(roots = []) t =
  let marked : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec mark hex =
    if not (Hashtbl.mem marked hex) then
      match Hashtbl.find_opt t.objects hex with
      | None -> ()
      | Some e ->
        Hashtbl.add marked hex ();
        List.iter mark e.e_meta.m_deps
  in
  List.iter (fun k -> mark (Chash.to_hex k)) roots;
  let doomed =
    Hashtbl.fold
      (fun hex e acc -> if Hashtbl.mem marked hex then acc else e :: acc)
      t.objects []
    |> List.sort (fun a b -> Chash.compare a.e_key b.e_key)
  in
  List.iter (fun e -> Hashtbl.remove t.objects (Chash.to_hex e.e_key)) doomed;
  Feam_obs.Metrics.incr ~by:(List.length doomed) "depot.gc_swept";
  {
    swept = List.map (fun e -> e.e_key) doomed;
    kept = Hashtbl.length t.objects;
    swept_bytes = List.fold_left (fun acc e -> acc + e.e_meta.m_size) 0 doomed;
  }

(* -- listings ------------------------------------------------------------ *)

(* Entries in key order: the canonical iteration for every rendering. *)
let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.objects []
  |> List.sort (fun a b -> Chash.compare a.e_key b.e_key)

let opt_field = function None -> "-" | Some s -> s

(* One line per object, key-sorted; two stores with the same contents
   render byte-identically. *)
let listing t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %10d %-24s pins=0 deps=%d %s\n"
           (Chash.to_hex e.e_key) e.e_meta.m_size
           (opt_field e.e_meta.m_soname)
           (List.length e.e_meta.m_deps)
           e.e_meta.m_origin))
    (entries t);
  Buffer.add_string buf
    (Printf.sprintf "total: %d objects, %d bytes\n" (object_count t)
       (total_bytes t));
  Buffer.contents buf

let meta_to_json (m : meta) =
  Json.Obj
    [
      ("soname", match m.m_soname with Some s -> Json.Str s | None -> Json.Null);
      ("version", match m.m_version with Some s -> Json.Str s | None -> Json.Null);
      ( "provider",
        match m.m_provider with Some s -> Json.Str s | None -> Json.Null );
      ("origin", Json.Str m.m_origin);
      ("size", Json.Int m.m_size);
      ("deps", Json.List (List.map (fun d -> Json.Str d) m.m_deps));
    ]

let to_json t =
  Json.Obj
    [
      ("objects", Json.Int (object_count t));
      ("bytes", Json.Int (total_bytes t));
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("key", Json.Str (Chash.to_hex e.e_key));
                   ("pins", Json.Int 0);
                   ("meta", meta_to_json e.e_meta);
                 ])
             (entries t)) );
    ]

(* -- host-filesystem persistence (the `feam depot` CLI) ------------------- *)

(* Layout under the depot directory:
     objects/<first two hex digits>/<key>       payload bytes
     objects/<first two hex digits>/<key>.meta  sidecar, one JSON object
   Pins are runtime state and are not persisted. *)

let shard hex = String.sub hex 0 2

let save_dir t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let objects = Filename.concat dir "objects" in
  if not (Sys.file_exists objects) then Sys.mkdir objects 0o755;
  List.iter
    (fun e ->
      let hex = Chash.to_hex e.e_key in
      let d = Filename.concat objects (shard hex) in
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      Out_channel.with_open_bin (Filename.concat d hex) (fun oc ->
          Out_channel.output_string oc e.e_bytes);
      Out_channel.with_open_text (Filename.concat d (hex ^ ".meta")) (fun oc ->
          Out_channel.output_string oc (Json.render (meta_to_json e.e_meta));
          Out_channel.output_char oc '\n'))
    (entries t)

let meta_of_json json =
  let str key = Json.str_field key json in
  {
    m_soname = str "soname";
    m_version = str "version";
    m_provider = str "provider";
    m_origin = Option.value (str "origin") ~default:"";
    m_size = Option.value (Json.int_field "size" json) ~default:0;
    m_deps = Json.strings_field "deps" json;
  }

(* Total over whatever the directory holds: a stray directory, a
   payload whose bytes do not hash to its name, a payload filed under
   the wrong shard, or an unreadable file is an [Error] naming the
   entry, never an exception.  Entries are visited in sorted order, so
   the first problem reported is the same on every run. *)
let load_dir dir =
  let objects = Filename.concat dir "objects" in
  if not (Sys.file_exists objects) then
    Error (Printf.sprintf "%s: not a depot (no objects/ directory)" dir)
  else begin
    let t = create () in
    let exception Damaged of string in
    let sorted_entries d =
      let names = Sys.readdir d in
      Array.sort String.compare names;
      Array.to_list names
    in
    let load_object sh name =
      let path = Filename.concat (Filename.concat objects sh) name in
      let damaged what =
        raise (Damaged (Printf.sprintf "%s/%s: %s" sh name what))
      in
      if Sys.is_directory path then damaged "a directory, not an object";
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let key = Chash.of_bytes bytes in
      if Chash.to_hex key <> name then
        damaged "payload does not hash to its key";
      if shard name <> sh then
        damaged
          (Printf.sprintf "filed under the wrong shard (want %s/)" (shard name));
      let m =
        let meta_file = path ^ ".meta" in
        if Sys.file_exists meta_file then
          match
            Json.parse
              (In_channel.with_open_text meta_file In_channel.input_all)
          with
          | Ok json -> meta_of_json json
          | Error _ -> meta ~size:(String.length bytes) ()
        else meta ~size:(String.length bytes) ()
      in
      Hashtbl.replace t.objects name
        { e_key = key; e_bytes = bytes; e_meta = m }
    in
    try
      List.iter
        (fun sh ->
          let shdir = Filename.concat objects sh in
          if Sys.is_directory shdir then
            List.iter
              (fun name ->
                if not (Filename.check_suffix name ".meta") then
                  load_object sh name)
              (sorted_entries shdir))
        (sorted_entries objects);
      Ok t
    with Damaged e | Sys_error e -> Error e
  end

(* [open_dir dir] — load an existing depot or start an empty one; the
   CLI's entry point. *)
let open_dir dir =
  if Sys.file_exists (Filename.concat dir "objects") then load_dir dir
  else Ok (create ())
