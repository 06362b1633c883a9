(* Dotted release versions with an optional pre-release tag, e.g. "2.3.4",
   "1.7rc1", "1.7a2".  Used for glibc versions, MPI implementation versions,
   compiler versions and shared-object version suffixes. *)

type t = {
  components : int list; (* numeric dotted components, most significant first *)
  tag : string option;   (* pre-release tag: "rc1", "a2", ... *)
}

let make ?tag components =
  if components = [] then invalid_arg "Version.make: empty component list";
  if List.exists (fun c -> c < 0) components then
    invalid_arg "Version.make: negative component";
  { components; tag }

let components t = t.components

let of_ints components = make components

(* Major component, e.g. 2 for "2.3.4". *)
let major t =
  match t.components with
  | [] -> assert false
  | c :: _ -> c

let to_string t =
  let base = String.concat "." (List.map string_of_int t.components) in
  match t.tag with
  | None -> base
  | Some tag -> base ^ tag

(* Parse "2.3.4" or "1.7rc1".  The tag is whatever non-digit/dot suffix
   trails the last numeric component.  Total: a component too long for
   an int makes the whole string no version. *)
let of_string s =
  let is_digit c = c >= '0' && c <= '9' in
  let n = String.length s in
  if n = 0 then None
  else
    let rec split_components i acc =
      (* invariant: position [i] starts a numeric component *)
      let rec digits_end j = if j < n && is_digit s.[j] then digits_end (j + 1) else j in
      let j = digits_end i in
      match int_of_string_opt (String.sub s i (j - i)) with
      | None -> None (* no digit, or too long for an int *)
      | Some comp ->
        let acc = comp :: acc in
        if j = n then Some (List.rev acc, None)
        else if s.[j] = '.' && j + 1 < n && is_digit s.[j + 1] then
          split_components (j + 1) acc
        else Some (List.rev acc, Some (String.sub s j (n - j)))
    in
    match split_components 0 [] with
    | None -> None
    | Some (components, tag) ->
      let tag = match tag with Some "" -> None | t -> t in
      Some { components; tag }

let of_string_exn s =
  match of_string s with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Version.of_string_exn: %S" s)

(* Total order: numeric components compared elementwise with implicit zero
   padding ("1.7" = "1.7.0"); a tagged version is a pre-release and orders
   before the untagged version with the same components ("1.7rc1" < "1.7");
   two tags compare lexicographically. *)
let compare a b =
  let rec cmp_components xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], y :: ys -> if y <> 0 then Stdlib.compare 0 y else cmp_components [] ys
    | x :: xs, [] -> if x <> 0 then Stdlib.compare x 0 else cmp_components xs []
    | x :: xs, y :: ys ->
      let c = Stdlib.compare x y in
      if c <> 0 then c else cmp_components xs ys
  in
  let c = cmp_components a.components b.components in
  if c <> 0 then c
  else
    match (a.tag, b.tag) with
    | None, None -> 0
    | None, Some _ -> 1 (* release > pre-release *)
    | Some _, None -> -1
    | Some x, Some y -> String.compare x y

let equal a b = compare a b = 0
let ( <= ) a b = compare a b <= 0
let ( < ) a b = compare a b < 0
let ( > ) a b = compare a b > 0

let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b
let min a b = if Stdlib.( <= ) (compare a b) 0 then a else b

let pp ppf t = Fmt.string ppf (to_string t)
