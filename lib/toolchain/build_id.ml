(* Build identification.  Real toolchains stamp every object with a
   distinct build ID (and timestamps), so no two builds — even of the
   same source on identical systems — produce byte-identical images.
   The simulator reproduces that for every build but a probe: the next
   serial of the site's world is folded into a comment string embedded
   in the image, which keeps the world's provenance table (keyed by
   image digest) collision-free.  A probe is its template's bytes: its
   ID digests the whole template key (DESIGN §19). *)

open Feam_sysmodel

let prefix = "GNU Build ID: "

(* The build ID of the build that [raw] names. *)
let of_string raw = prefix ^ Digest.to_hex (Digest.string raw)

let next site =
  of_string
    (Printf.sprintf "%s/%d" (Site.name site) (Build_world.next_serial (Site.world site)))
