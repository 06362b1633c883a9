(* Unique build identification.  Real toolchains stamp every object with
   a distinct build ID (and timestamps), so no two builds — even of the
   same source on identical systems — produce byte-identical images.
   The simulator reproduces that: a process-global serial is folded into
   a comment string embedded in each image, which keeps the ground-truth
   provenance registry (keyed by image bytes) collision-free and gives
   every probe compile an independent identity. *)

let counter = ref 0

let reset () = counter := 0

let prefix = "GNU Build ID: "

(* A .comment-style build-id string, unique per call.  A running effect
   capture notes it, so a memo hit can skip the serial past it. *)
let next ~site_name =
  incr counter;
  if Feam_util.Effects.capturing () then Feam_util.Effects.(note Build);
  let raw = Printf.sprintf "%s/%d" site_name !counter in
  prefix ^ Digest.to_hex (Digest.string raw)

(* [next]'s shape with zero digits: every build-id string is this long. *)
let placeholder = prefix ^ String.make 32 '0'

let serial () = !counter

(* Advance the serial as [n] calls to [next] would, noted alike. *)
let skip n =
  counter := !counter + n;
  if Feam_util.Effects.capturing () then
    for _ = 1 to n do
      Feam_util.Effects.(note Build)
    done
