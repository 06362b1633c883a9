(* The build side of one world: the sites built together share its
   build sequence, which numbers their builds, and its provenance table,
   which the ground-truth executor reads.  A world holds no site. *)

type t = {
  mutable serial : int;
  provenance : (Digest.t, Provenance.t) Hashtbl.t;
}

(* Sized for the world made most often, one per Scengen scenario: at
   seed 42 (200 scenarios) a scenario world holds 25-37 records when built and at most
   40 after Harness.run_one, inside 64 buckets' load bound.  The seed-42
   matrix world (193 records with its sites, 457 with the test set, 509
   after one pass) resizes twice. *)
let create () = { serial = 0; provenance = Hashtbl.create 64 }

let next_serial t =
  t.serial <- t.serial + 1;
  t.serial

let serial t = t.serial

let register t digest provenance = Hashtbl.replace t.provenance digest provenance

let find t digest = Hashtbl.find_opt t.provenance digest

let provenance t = Hashtbl.fold (fun _ p acc -> p :: acc) t.provenance []
