(* The determinant<-evidence dependency map and the one atom diff.

   `Tec.decide`'s verdict over a (binary, target) cell is a pure
   function of two documents — the binary's description and the target
   site's discovery — plus the bundle and library-inventory facts the
   resolution walk consults.  Flattened through `Feam_flightrec.Diff`,
   those documents become (owner, dotted path, value) *evidence atoms*,
   and this module records which of the four determinants each atom
   feeds.  It is also the only place atoms are diffed: the resident
   world that drift and the prediction service keep
   ([Feam_evalharness.Driftrun.World]) runs [diff] of each recaptured
   owner against its resident capture, the cold reference
   ([Feam_drift.Invalidate.affected]) over two epochs' atoms, and both
   hand the resulting changes to the one reach rule,
   [Feam_drift.Invalidate.plan].

   Soundness (DESIGN §13/§14): an atom whose path the map does not
   recognise conservatively invalidates every determinant, so a cell
   outside the affected set has byte-identical decision inputs and
   therefore a byte-identical verdict. *)

type owner = Site_owner of string | Binary_owner of string

let owner_to_string = function
  | Site_owner s -> "site " ^ s
  | Binary_owner b -> "binary " ^ b

let owner_rank = function Site_owner _ -> 0 | Binary_owner _ -> 1

let owner_name = function Site_owner s -> s | Binary_owner b -> b

let compare_owner a b =
  match Stdlib.compare (owner_rank a) (owner_rank b) with
  | 0 -> String.compare (owner_name a) (owner_name b)
  | c -> c

(* -- the determinant <- evidence dependency map ------------------------ *)

(* Determinant names follow the flight recorder's decision records
   (`Recorder.decision ~determinant:...` in [Tec]), in the paper's
   evaluation order. *)
let all_determinants = [ "isa"; "glibc"; "mpi_stack"; "shared_libraries" ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Site-owned atoms reach a cell through the target-side EDC discovery,
   the probe run, and the ldd/resolution walk.  The target glibc also
   feeds probe compatibility and resolution filtering, so it fans out
   past the glibc determinant. *)
let site_determinants path =
  if
    has_prefix "discovery.machine" path
    || has_prefix "discovery.os" path
    || has_prefix "discovery.kernel" path
  then [ "isa" ]
  else if has_prefix "discovery.glibc" path then
    [ "glibc"; "mpi_stack"; "shared_libraries" ]
  else if
    has_prefix "discovery.stacks" path
    || has_prefix "discovery.current_stack" path
  then [ "mpi_stack"; "shared_libraries" ]
  else if has_prefix "discovery.env_type" path then []
  else if path = "ld_cache_current" || has_prefix "inventory." path then
    (* library visibility: the resolution walk, and the probe runs that
       load libraries under the candidate stack's session *)
    [ "mpi_stack"; "shared_libraries" ]
  else all_determinants

(* Binary-owned atoms reach every cell of that binary.  The MPI identity
   is derived from the needed list, so needed changes invalidate the
   stack determinant too; bundle elements carry the probes and the
   resolution model's library copies. *)
let binary_determinants path =
  if has_prefix "description.format" path then [ "isa" ]
  else if has_prefix "description.verneeds" path then [ "glibc" ]
  else if
    has_prefix "description.needed" path || has_prefix "description.soname" path
  then [ "mpi_stack"; "shared_libraries" ]
  else if
    has_prefix "description.rpath" path || has_prefix "description.runpath" path
  then [ "shared_libraries" ]
  else if has_prefix "description.compiler" path then [ "mpi_stack" ]
  else if
    has_prefix "description.build_os" path || has_prefix "description.path" path
  then []
  else if has_prefix "bundle." path then [ "mpi_stack"; "shared_libraries" ]
  else all_determinants (* digest, error, home, unknown paths: everything *)

let determinants_of_atom owner path =
  match owner with
  | Site_owner _ -> site_determinants path
  | Binary_owner _ -> binary_determinants path

(* -- the one atom diff ------------------------------------------------- *)

type change = {
  ev_owner : owner;
  ev_path : string;
  ev_before : string option;
  ev_after : string option;
  ev_determinants : string list;
}

let change owner path before after =
  {
    ev_owner = owner;
    ev_path = path;
    ev_before = before;
    ev_after = after;
    ev_determinants = determinants_of_atom owner path;
  }

(* Sort both captures by path, then merge-diff them. *)
let diff owner olds news =
  let sort = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) in
  let rec go olds news acc =
    match (olds, news) with
    | [], [] -> List.rev acc
    | (p, v) :: olds, [] -> go olds [] (change owner p (Some v) None :: acc)
    | [], (p, v) :: news -> go [] news (change owner p None (Some v) :: acc)
    | (po, vo) :: olds', (pn, vn) :: news' ->
      let c = String.compare po pn in
      if c < 0 then go olds' news (change owner po (Some vo) None :: acc)
      else if c > 0 then go olds news' (change owner pn None (Some vn) :: acc)
      else if String.equal vo vn then go olds' news' acc
      else go olds' news' (change owner po (Some vo) (Some vn) :: acc)
  in
  go (sort olds) (sort news) []
