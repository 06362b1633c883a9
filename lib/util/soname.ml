(* Shared-object naming convention: lib<name>.so.<major>[.<minor>[.<patch>]].
   The prediction model's shared-library determinant (paper §III.D) is built
   on this convention: a library with the same base name and the same major
   version is API compatible. *)

type t = {
  base : string;          (* "libmpi", "libgfortran", ... *)
  version : int list;     (* the trailing dotted numbers; [] for "libfoo.so" *)
}

let make ?(version = []) base =
  if base = "" then invalid_arg "Soname.make: empty base";
  if List.exists (fun c -> c < 0) version then
    invalid_arg "Soname.make: negative version component";
  { base; version }

let base t = t.base
let version t = t.version

let major t =
  match t.version with
  | [] -> None
  | v :: _ -> Some v

let to_string t =
  let suffix = List.map (fun c -> "." ^ string_of_int c) t.version in
  t.base ^ ".so" ^ String.concat "" suffix

(* The link name used at compile time: "libfoo.so". *)
let link_name t = t.base ^ ".so"

(* Why parsing a file name as a soname failed: fuel for the lint rule
   that surfaces malformed library names instead of dropping them. *)
type parse_error =
  | No_so_marker
  | Empty_base
  | Empty_version_component
  | Bad_version_component of string
  | Version_out_of_range of string

let parse_error_to_string = function
  | No_so_marker -> "no \".so\" marker followed by a dotted numeric version"
  | Empty_base -> "empty library base name before \".so\""
  | Empty_version_component -> "empty version component (consecutive dots)"
  | Bad_version_component c ->
    Printf.sprintf "non-numeric version component %S" c
  | Version_out_of_range c ->
    Printf.sprintf "version component %S out of range" c

(* Parse "libfoo.so.1.2.3".  Scans for a ".so" occurrence followed only by
   dotted numbers (or nothing); on failure the error describes the best
   (last) candidate so callers can explain *why* a name is malformed. *)
let of_string_result s =
  let is_digit c = c >= '0' && c <= '9' in
  let n = String.length s in
  (* Diagnose the version suffix after one ".so" candidate. *)
  let suffix_error rest =
    if rest = "" then None
    else if rest.[0] <> '.' then Some (Bad_version_component rest)
    else
      let parts =
        String.split_on_char '.' (String.sub rest 1 (String.length rest - 1))
      in
      List.find_map
        (fun p ->
          if p = "" then Some Empty_version_component
          else if not (String.for_all is_digit p) then
            Some (Bad_version_component p)
          else
            match int_of_string_opt p with
            | Some _ -> None
            | None -> Some (Version_out_of_range p))
        parts
  in
  let rec find_so i err =
    if i + 3 > n then Error (Option.value err ~default:No_so_marker)
    else if String.sub s i 3 = ".so" then
      let rest = String.sub s (i + 3) (n - i - 3) in
      match suffix_error rest with
      | Some e -> find_so (i + 1) (Some e)
      | None ->
        if i = 0 then find_so (i + 1) (Some Empty_base)
        else
          let version =
            if rest = "" then []
            else
              String.split_on_char '.'
                (String.sub rest 1 (String.length rest - 1))
              |> List.map int_of_string
          in
          Ok { base = String.sub s 0 i; version }
    else find_so (i + 1) err
  in
  find_so 0 None

let of_string s = Result.to_option (of_string_result s)

let of_string_exn s =
  match of_string_result s with
  | Ok t -> t
  | Error e ->
    invalid_arg
      (Printf.sprintf "Soname.of_string_exn: %S (%s)" s (parse_error_to_string e))

(* [satisfies ~provided ~required]: can a library named [provided] satisfy a
   dependency on [required]?  Same base name and, when the requirement names
   a major version, the same major version (libraries sharing a major
   version are API compatible by convention).  A requirement without a
   version ("libfoo.so") is satisfied by any version of the library. *)
let satisfies ~provided ~required =
  provided.base = required.base
  &&
  match (major required, major provided) with
  | None, _ -> true
  | Some _, None -> false
  | Some r, Some p -> r = p
