(* Substring search, which Stdlib lacks.  Matching compares in place,
   so a scan allocates nothing. *)

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
  if sub = "" then invalid_arg "Str_split.find: empty substring";
  let until = match until with Some u -> min u (String.length s) | None -> String.length s in
  find_from sub s (until - String.length sub) (max from 0)

let contains ~sub s = find ~sub s <> None
