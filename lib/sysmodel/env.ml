(* Shell environment of a simulated site session: variable map plus
   helpers for the colon-separated path variables the resolution model
   manipulates (PATH, LD_LIBRARY_PATH). *)

module M = Map.Make (String)

type t = string M.t

let empty : t = M.empty

let get t name = M.find_opt name t

let set t name value = M.add name value t

let bindings t = M.bindings t

(* Split a colon-separated path list, dropping empty components. *)
let split_paths value =
  String.split_on_char ':' value |> List.filter (fun s -> s <> "")

let paths t name =
  match get t name with None -> [] | Some v -> split_paths v

(* Prepend a directory to a path variable (the resolution model makes
   library copies visible this way, paper §IV). *)
let prepend_path t name dir =
  match get t name with
  | None | Some "" -> set t name dir
  | Some v -> set t name (dir ^ ":" ^ v)

let ld_library_path t = paths t "LD_LIBRARY_PATH"

let path t = paths t "PATH"
