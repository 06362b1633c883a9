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

(* One write made while a scope is open: the path and the file it
   replaced ([None]: no file). *)
type change = { path : string; before : file option }

(* [log] holds every write, newest first, while [depth] scopes are open;
   outside them it is empty and nothing is logged.  Each scope remembers
   the log as it found it and undoes only the changes newer than that
   mark.  [generation] counts the writes made outside every scope: the
   ones no scope undoes. *)
type t = {
  files : (string, file) Hashtbl.t;
  mutable log : change list;
  mutable depth : int;
  mutable generation : int;
}

let create () =
  { files = Hashtbl.create 256; log = []; depth = 0; generation = 0 }

let generation t = t.generation

let write t path after =
  if t.depth > 0 then
    t.log <- { path; before = Hashtbl.find_opt t.files path } :: t.log
  else t.generation <- t.generation + 1;
  match after with
  | Some f -> Hashtbl.replace t.files path f
  | None -> Hashtbl.remove t.files path

(* Normalize an absolute path: collapse "//" and trailing "/", resolve
   "." and ".." textually. *)
let normalize path =
  if path = "" || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Vfs: path must be absolute: %S" path);
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

let dirname path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub path 0 i

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
  write t path (Some { kind; declared_size })

let remove t path = write t (normalize path) None

(* Run [f], then put back, newest first, every file it added, replaced
   or removed. *)
let scoped t f =
  let mark = t.log in
  let rec undo l =
    if l != mark then
      match l with
      | e :: rest ->
        (match e.before with
        | Some file -> Hashtbl.replace t.files e.path file
        | None -> Hashtbl.remove t.files e.path);
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

(* Resolve symlinks (bounded depth to terminate on cycles). *)
let rec resolve ?(depth = 16) t path =
  if depth = 0 then None
  else
    let path = normalize path in
    match Hashtbl.find_opt t.files path with
    | Some { kind = Symlink target; _ } ->
      let target =
        if String.length target > 0 && target.[0] = '/' then target
        else dirname path ^ "/" ^ target
      in
      resolve ~depth:(depth - 1) t target
    | Some f -> Some (path, f)
    | None -> None

let find t path = Option.map snd (resolve t path)

let entry t path = Hashtbl.find_opt t.files (normalize path)

let exists t path = find t path <> None

let kind_of t path = Option.map (fun f -> f.kind) (find t path)

(* Size in bytes as `du` would report it. *)
let file_size t path =
  match find t path with Some f -> Some f.declared_size | None -> None

let is_dir t path =
  let path = normalize path in
  let prefix = if path = "/" then "/" else path ^ "/" in
  Hashtbl.fold
    (fun p _ acc -> acc || String.starts_with ~prefix p)
    t.files false

(* Direct children names of a directory (files and subdirectories). *)
let list_dir t path =
  let path = normalize path in
  let prefix = if path = "/" then "/" else path ^ "/" in
  let plen = String.length prefix in
  let children = Hashtbl.create 16 in
  Hashtbl.iter
    (fun p _ ->
      if String.starts_with ~prefix p && String.length p > plen then begin
        let rest = String.sub p plen (String.length p - plen) in
        let child =
          match String.index_opt rest '/' with
          | Some i -> String.sub rest 0 i
          | None -> rest
        in
        Hashtbl.replace children child ()
      end)
    t.files;
  Hashtbl.fold (fun c () acc -> c :: acc) children [] |> List.sort String.compare

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

(* Total declared size below a directory: `du -s`. *)
let du t dir =
  let dir = normalize dir in
  let prefix = if dir = "/" then "/" else dir ^ "/" in
  Hashtbl.fold
    (fun p f acc ->
      if String.starts_with ~prefix p || p = dir then acc + f.declared_size
      else acc)
    t.files 0
