(* Virtual filesystem of a simulated computing site.

   Stores regular files (ELF images, scripts, plain text) and symlinks
   under absolute, normalized paths.  Directories are implicit: a
   directory exists when some file lives below it.  File contents of ELF
   images are real bytes produced by {!Feam_elf.Builder}; [declared_size]
   carries the realistic on-disk size (megabytes for shared libraries)
   used for bundle-size accounting, independent of the metadata image's
   actual length. *)

type kind =
  | Elf of string     (* ELF image bytes *)
  | Script of string  (* executable text: wrappers, submission scripts *)
  | Text of string    (* /etc/redhat-release, module files, ... *)
  | Symlink of string (* absolute or relative target *)

type file = { kind : kind; declared_size : int }

(* A stored file and, once an ELF read asked for it, its image handle,
   which holds the bytes' parse and key, so later reads parse and hash
   nothing (DESIGN §15).  A write stores a new slot; an undo puts the
   old slot back, handle and all. *)
type slot = { file : file; mutable image : Feam_elf.Reader.image option }

(* One write made while a scope is open: the path and the slot it
   replaced ([None]: no file). *)
type change = { path : string; before : slot option }

(* A directory's version cell (DESIGN §21).  A write or an undo in the
   directory sets it to the file system's next tick, so a cell's value
   only grows and a version never repeats. *)
type cell = { mutable version : int }

(* [log] holds every write, newest first, while [depth] scopes are open;
   outside them it is empty and nothing is logged.  Each scope remembers
   the log as it found it and undoes only the changes newer than that
   mark.  [generation] counts the writes made outside every scope: the
   ones no scope undoes.  [dirs] holds a version cell for each directory
   a tracked lookup consulted, made on its first such lookup; [tick] is
   the last version handed out. *)
type t = {
  files : (string, slot) Hashtbl.t;
  mutable log : change list;
  mutable depth : int;
  mutable generation : int;
  dirs : (string, cell) Hashtbl.t;
  mutable tick : int;
}

let create () =
  {
    files = Hashtbl.create 256;
    log = [];
    depth = 0;
    generation = 0;
    dirs = Hashtbl.create 16;
    tick = 0;
  }

let generation t = t.generation

let written_in_scope t pred = List.exists (fun c -> pred c.path) t.log

let dirname path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub path 0 i

(* Move the version of [path]'s directory, if a reader ever asked for
   it.  Until one has, a write only finds the table empty. *)
let touch t path =
  if Hashtbl.length t.dirs > 0 then
    match Hashtbl.find_opt t.dirs (dirname path) with
    | Some cell ->
      t.tick <- t.tick + 1;
      cell.version <- t.tick
    | None -> ()

(* Store [after] at [path]: the one place a file changes. *)
let set t path after =
  touch t path;
  match after with
  | Some slot -> Hashtbl.replace t.files path slot
  | None -> Hashtbl.remove t.files path

let write t path after =
  if t.depth > 0 then
    t.log <- { path; before = Hashtbl.find_opt t.files path } :: t.log
  else t.generation <- t.generation + 1;
  set t path after

(* Is [path] (absolute) already normal: no empty, "." or ".." component
   and no trailing "/" (except for "/" itself)?  One scan, no
   allocation. *)
let is_normal path =
  let n = String.length path in
  (* [start] is where the current component began, just after a '/'. *)
  let rec scan start i =
    if i = n || path.[i] = '/' then
      let len = i - start in
      len > 0
      && (not (len = 1 && path.[start] = '.'))
      && (not (len = 2 && path.[start] = '.' && path.[start + 1] = '.'))
      && (i = n || scan (i + 1) (i + 1))
    else scan start (i + 1)
  in
  n = 1 || scan 1 1

(* Normalize an absolute path: collapse "//" and trailing "/", resolve
   "." and ".." textually.  A path that is already normal comes back
   as it is. *)
let normalize path =
  if path = "" || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Vfs: path must be absolute: %S" path);
  if is_normal path then path
  else
    let parts = String.split_on_char '/' path in
    let stack =
      List.fold_left
        (fun stack part ->
          match part with
          | "" | "." -> stack
          | ".." -> ( match stack with [] -> [] | _ :: rest -> rest)
          | p -> p :: stack)
        [] parts
    in
    "/" ^ String.concat "/" (List.rev stack)

let basename path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let default_size kind =
  match kind with
  | Elf bytes -> String.length bytes
  | Script s | Text s -> String.length s
  | Symlink _ -> 0

let add ?declared_size t path kind =
  let path = normalize path in
  let declared_size =
    match declared_size with Some s -> s | None -> default_size kind
  in
  write t path (Some { file = { kind; declared_size }; image = None })

let add_image ?declared_size t path image =
  let bytes = Feam_elf.Reader.image_bytes image in
  let declared_size =
    match declared_size with Some s -> s | None -> String.length bytes
  in
  write t (normalize path)
    (Some { file = { kind = Elf bytes; declared_size }; image = Some image })

let remove t path = write t (normalize path) None

(* Run [f], then put back, newest first, every file it added, replaced
   or removed. *)
let scoped t f =
  let mark = t.log in
  let rec undo l =
    if l != mark then
      match l with
      | e :: rest ->
        set t e.path e.before;
        undo rest
      | [] -> assert false
  in
  t.depth <- t.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      undo t.log;
      t.log <- mark;
      t.depth <- t.depth - 1)
    f

(* The directories a run of tracked lookups consulted, each with its
   cell and the version it had then. *)
type reads = (string, cell * int) Hashtbl.t

let reads () : reads = Hashtbl.create 16

(* Note that a lookup consulted [dir], making its cell on first ask. *)
let note t (reads : reads) dir =
  if not (Hashtbl.mem reads dir) then begin
    let cell =
      match Hashtbl.find_opt t.dirs dir with
      | Some cell -> cell
      | None ->
        let cell = { version = t.tick } in
        Hashtbl.add t.dirs dir cell;
        cell
    in
    Hashtbl.add reads dir (cell, cell.version)
  end

let unchanged (reads : reads) =
  Hashtbl.fold (fun _ (cell, version) ok -> ok && cell.version = version) reads true

(* Where the link at [path] to [target] points. *)
let link_target path target =
  if String.length target > 0 && target.[0] = '/' then target
  else dirname path ^ "/" ^ target

(* The normal paths a lookup of [path] passes through, in order: the
   path and each link's target, as {!resolve_slot} follows them. *)
let lookup_chain t path =
  let rec go depth path =
    let path = normalize path in
    path
    ::
    (match Hashtbl.find_opt t.files path with
    | Some { file = { kind = Symlink target; _ }; _ } when depth > 1 ->
      go (depth - 1) (link_target path target)
    | _ -> [])
  in
  go 16 path

(* Resolve symlinks (bounded depth to terminate on cycles): the real
   path and its slot.  With [reads], each path looked up notes its
   directory. *)
let rec resolve_slot ?reads depth t path =
  if depth = 0 then None
  else
    let path = normalize path in
    (match reads with Some reads -> note t reads (dirname path) | None -> ());
    match Hashtbl.find_opt t.files path with
    | Some { file = { kind = Symlink target; _ }; _ } ->
      resolve_slot ?reads (depth - 1) t (link_target path target)
    | Some slot -> Some (path, slot)
    | None -> None

let resolve ?(depth = 16) t path =
  match resolve_slot depth t path with
  | Some (path, slot) -> Some (path, slot.file)
  | None -> None

let resolve_image ?reads t path =
  match resolve_slot ?reads 16 t path with
  | Some (path, ({ file = { kind = Elf bytes; _ }; image } as slot)) -> (
    match image with
    | Some image -> Some (path, image)
    | None ->
      let image = Feam_elf.Reader.image bytes in
      slot.image <- Some image;
      Some (path, image))
  | Some _ | None -> None

let find t path =
  match resolve_slot 16 t path with
  | Some (_, slot) -> Some slot.file
  | None -> None

let entry t path =
  match Hashtbl.find_opt t.files (normalize path) with
  | Some slot -> Some slot.file
  | None -> None

let exists t path = find t path <> None

(* Size in bytes as `du` would report it. *)
let file_size t path =
  match find t path with Some f -> Some f.declared_size | None -> None

(* All file paths, sorted: the `locate` database view. *)
let all_paths t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.files [] |> List.sort String.compare

(* Paths whose basename matches [pred]. *)
let find_by_basename t pred =
  all_paths t |> List.filter (fun p -> pred (basename p))

(* Paths under [dir] whose basename matches [pred]: `find dir -name`. *)
let find_under t dir pred =
  let dir = normalize dir in
  let prefix = if dir = "/" then "/" else dir ^ "/" in
  all_paths t
  |> List.filter (fun p -> String.starts_with ~prefix p && pred (basename p))

(* Remove a whole subtree: `rm -rf`. *)
let remove_tree t dir =
  let dir = normalize dir in
  let prefix = if dir = "/" then "/" else dir ^ "/" in
  let doomed =
    Hashtbl.fold
      (fun p _ acc ->
        if String.starts_with ~prefix p || p = dir then p :: acc else acc)
      t.files []
  in
  List.iter (fun p -> write t p None) doomed
