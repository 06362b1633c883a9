(* Split a string on a multi-character separator (Stdlib only splits on
   single characters).  Matching compares in place: only the pieces
   returned are allocated. *)

let empty_separator () =
  invalid_arg "Str_split.split_on_string: empty separator"

(* Does [sub] occur in [s] at offset [i], with [0 <= i] and
   [i + String.length sub <= String.length s]?  Compares from [sub]'s
   offset [j] on.  Top-level loops, so a scan allocates nothing. *)
let rec matches_at sub s i j =
  j = String.length sub
  || (String.unsafe_get s (i + j) = String.unsafe_get sub j && matches_at sub s i (j + 1))

let occurs_at ~sub s i =
  i >= 0 && i + String.length sub <= String.length s && matches_at sub s i 0

let rec find_from sub s last i =
  if i > last then None
  else if matches_at sub s i 0 then Some i
  else find_from sub s last (i + 1)

let find ?(from = 0) ?until ~sub s =
  if sub = "" then empty_separator ();
  let until = match until with Some u -> min u (String.length s) | None -> String.length s in
  find_from sub s (until - String.length sub) (max from 0)

let split_on_string ~sep s =
  let seplen = String.length sep in
  let n = String.length s in
  let rec go start acc =
    match find ~from:start ~sub:sep s with
    | None -> List.rev (String.sub s start (n - start) :: acc)
    | Some i -> go (i + seplen) (String.sub s start (i - start) :: acc)
  in
  go 0 []

let contains ~sub s = find ~sub s <> None
