(* One epoch of fleet evidence: everything the migration matrix's
   verdicts are a function of, captured as plain data — per-site
   discoveries and library inventories, per-binary descriptions and
   bundle digests, the depot possession derived from ready cells, and
   the verdict table itself.

   Epochs are numbered, never timestamped: the same world captured
   twice serializes byte-identically, and the content address (reusing
   the depot's Chash under a drift-specific domain prefix) is the
   epoch's identity.  On disk an epoch is a versioned Feam_util.Jsonl
   document: an "epoch" header line, then one record per site, binary,
   possession row and cell. *)

module Json = Feam_util.Json
module Chash = Feam_util.Chash
module Diff = Feam_flightrec.Diff

let schema_version = 1

(* Domain separation on top of the depot hash: an epoch body and a
   library payload with identical bytes must never collide keys. *)
let hash_domain = "feam.drift.epoch.v1\x00"

type site_state = {
  ss_name : string;
  ss_ld_cache_current : bool;
  ss_discovery : Json.t;  (* Discovery.to_json of the target-mode EDC run *)
  ss_inventory : (string * string) list;  (* loader-visible path -> digest *)
}

type binary_state = {
  bs_id : string;
  bs_home : string;
  bs_digest : string;  (* content hash of the binary image *)
  bs_error : string option;  (* source-phase failure, if any *)
  bs_description : Json.t;  (* Description.to_json; Null under bs_error *)
  bs_bundle : (string * string) list;  (* bundle element -> digest *)
}

type cell = {
  cl_binary : string;
  cl_target : string;
  cl_basic : bool;
  cl_basic_reasons : string list;
  cl_extended : bool;
  cl_extended_reasons : string list;
  cl_staged : string list;
}

type t = {
  epoch : int;
  seed : int;
  label : string;  (* the perturbation this epoch applied; "" at baseline *)
  sites : site_state list;
  binaries : binary_state list;
  possession : (string * string list) list;  (* site -> object digests *)
  cells : cell list;
}

(* Canonical ordering: every list sorted by its natural key, so capture
   order never leaks into the serialization or the hash. *)
let normalize t =
  {
    t with
    sites =
      List.map
        (fun s ->
          { s with ss_inventory = List.sort compare s.ss_inventory })
        t.sites
      |> List.sort (fun a b -> String.compare a.ss_name b.ss_name);
    binaries =
      List.map (fun b -> { b with bs_bundle = List.sort compare b.bs_bundle })
        t.binaries
      |> List.sort (fun a b -> String.compare a.bs_id b.bs_id);
    possession =
      List.map (fun (s, ks) -> (s, List.sort_uniq compare ks)) t.possession
      |> List.sort compare;
    cells =
      List.sort
        (fun a b ->
          compare (a.cl_binary, a.cl_target) (b.cl_binary, b.cl_target))
        t.cells;
  }

let ready_cells t =
  List.length (List.filter (fun c -> c.cl_extended) t.cells)

let readiness_rate t =
  match t.cells with
  | [] -> 0.0
  | cells -> float_of_int (ready_cells t) /. float_of_int (List.length cells)

(* -- serialization ---------------------------------------------------- *)

let str_list l = Json.List (List.map (fun s -> Json.Str s) l)

let pairs_json ~key ~value l =
  Json.List
    (List.map
       (fun (k, v) -> Json.Obj [ (key, Json.Str k); (value, Json.Str v) ])
       l)

let site_to_json s =
  Json.Obj
    [
      ("type", Json.Str "site");
      ("name", Json.Str s.ss_name);
      ("ld_cache_current", Json.Bool s.ss_ld_cache_current);
      ("discovery", s.ss_discovery);
      ("inventory", pairs_json ~key:"path" ~value:"digest" s.ss_inventory);
    ]

let binary_to_json b =
  Json.Obj
    [
      ("type", Json.Str "binary");
      ("id", Json.Str b.bs_id);
      ("home", Json.Str b.bs_home);
      ("digest", Json.Str b.bs_digest);
      ( "error",
        match b.bs_error with None -> Json.Null | Some e -> Json.Str e );
      ("description", b.bs_description);
      ("bundle", pairs_json ~key:"name" ~value:"digest" b.bs_bundle);
    ]

let possession_to_json (site, keys) =
  Json.Obj
    [
      ("type", Json.Str "possession");
      ("site", Json.Str site);
      ("objects", str_list keys);
    ]

let cell_to_json c =
  Json.Obj
    [
      ("type", Json.Str "cell");
      ("binary", Json.Str c.cl_binary);
      ("target", Json.Str c.cl_target);
      ("basic", Json.Bool c.cl_basic);
      ("basic_reasons", str_list c.cl_basic_reasons);
      ("extended", Json.Bool c.cl_extended);
      ("extended_reasons", str_list c.cl_extended_reasons);
      ("staged", str_list c.cl_staged);
    ]

let to_jsonl t =
  let t = normalize t in
  let records to_json l = Seq.map to_json (List.to_seq l) in
  Feam_util.Jsonl.render
    (Seq.concat
       (List.to_seq
          [
            List.to_seq
              [
                Feam_util.Jsonl.header ~kind:"epoch" ~schema:schema_version
                  ~tool:"drift";
                Json.Obj
                  [
                    ("type", Json.Str "meta");
                    ("epoch", Json.Int t.epoch);
                    ("seed", Json.Int t.seed);
                    ("label", Json.Str t.label);
                  ];
              ];
            records site_to_json t.sites;
            records binary_to_json t.binaries;
            records possession_to_json t.possession;
            records cell_to_json t.cells;
          ]))

let hash t = Chash.to_hex (Chash.of_bytes (hash_domain ^ to_jsonl t))

(* -- parsing ---------------------------------------------------------- *)

let parse_record t json =
  match Json.str_field "type" json with
  | Some "meta" -> (
    match (Json.int_field "epoch" json, Json.int_field "seed" json) with
    | Some epoch, Some seed ->
      Ok
        {
          t with
          epoch;
          seed;
          label = Option.value (Json.str_field "label" json) ~default:"";
        }
    | _ -> Error "meta record needs integer epoch and seed")
  | Some "site" -> (
    match Json.str_field "name" json with
    | None -> Error "site record needs a name"
    | Some name ->
      let s =
        {
          ss_name = name;
          ss_ld_cache_current =
            Option.value
              (Json.bool_field "ld_cache_current" json)
              ~default:true;
          ss_discovery =
            Option.value (Json.member "discovery" json) ~default:Json.Null;
          ss_inventory = Json.pairs_field "inventory" ("path", "digest") json;
        }
      in
      Ok { t with sites = s :: t.sites })
  | Some "binary" -> (
    match (Json.str_field "id" json, Json.str_field "home" json) with
    | Some id, Some home ->
      let b =
        {
          bs_id = id;
          bs_home = home;
          bs_digest = Option.value (Json.str_field "digest" json) ~default:"";
          bs_error = Json.str_field "error" json;
          bs_description =
            Option.value (Json.member "description" json) ~default:Json.Null;
          bs_bundle = Json.pairs_field "bundle" ("name", "digest") json;
        }
      in
      Ok { t with binaries = b :: t.binaries }
    | _ -> Error "binary record needs id and home")
  | Some "possession" -> (
    match Json.str_field "site" json with
    | None -> Error "possession record needs a site"
    | Some site ->
      let objects = Json.strings_field "objects" json in
      Ok { t with possession = (site, objects) :: t.possession })
  | Some "cell" -> (
    match (Json.str_field "binary" json, Json.str_field "target" json) with
    | Some binary, Some target ->
      let c =
        {
          cl_binary = binary;
          cl_target = target;
          cl_basic = Option.value (Json.bool_field "basic" json) ~default:false;
          cl_basic_reasons = Json.strings_field "basic_reasons" json;
          cl_extended =
            Option.value (Json.bool_field "extended" json) ~default:false;
          cl_extended_reasons = Json.strings_field "extended_reasons" json;
          cl_staged = Json.strings_field "staged" json;
        }
      in
      Ok { t with cells = c :: t.cells }
    | _ -> Error "cell record needs binary and target")
  | Some _ -> Ok t (* unknown record types are preserved-by-ignoring *)
  | None -> Error "record without a type"

let of_jsonl body =
  let empty =
    {
      epoch = 0;
      seed = 0;
      label = "";
      sites = [];
      binaries = [];
      possession = [];
      cells = [];
    }
  in
  Feam_util.Jsonl.fold_document ~kind:"epoch" ~current:schema_version
    ~init:empty ~step:parse_record body
  |> Result.map (fun (_, t) -> normalize t)
  |> Result.map_error Feam_util.Jsonl.error_to_string

(* -- evidence atoms ---------------------------------------------------- *)

(* The invalidation engine's vocabulary: each fleet-evidence fact as a
   (dotted path, value) atom of its owner.  Cells and possession are
   derived data — they are never inputs to invalidation, so they
   contribute no atoms.  The owner type is the core evidence map's, so
   the atom diff and the reach rule share one vocabulary. *)

type owner = Feam_core.Evidence.owner =
  | Site_owner of string
  | Binary_owner of string

let owner_to_string = Feam_core.Evidence.owner_to_string

let site_atoms s =
  ("ld_cache_current", string_of_bool s.ss_ld_cache_current)
  :: List.map (fun (p, v) -> ("discovery." ^ p, v)) (Diff.atoms s.ss_discovery)
  @ List.map (fun (path, digest) -> ("inventory." ^ path, digest)) s.ss_inventory

let binary_atoms b =
  ("home", b.bs_home) :: ("digest", b.bs_digest)
  :: (match b.bs_error with
     | None -> []
     | Some e -> [ ("error", e) ])
  @ List.map (fun (p, v) -> ("description." ^ p, v))
      (Diff.atoms b.bs_description)
  @ List.map (fun (name, digest) -> ("bundle." ^ name, digest)) b.bs_bundle

let evidence_atoms t =
  let t = normalize t in
  List.map (fun s -> (Site_owner s.ss_name, site_atoms s)) t.sites
  @ List.map (fun b -> (Binary_owner b.bs_id, binary_atoms b)) t.binaries
