(** The dedup'd transfer planner: minimal ordered set of depot objects
    a migration must ship to a target site, given what the site already
    holds.  {!compute} is pure; the live pipeline and [feam replay]
    share it, so journaled plans reproduce byte-for-byte. *)

module Chash := Feam_util.Chash

type want = { w_label : string; w_key : Chash.t; w_size : int }

val want : label:string -> key:Chash.t -> size:int -> want

type item = { it_label : string; it_key : Chash.t; it_size : int }

type t = {
  plan_site : string;
  items : item list;  (** ship order: want order, deduplicated by key *)
  hits : int;  (** wanted objects the site already held *)
  shipped_bytes : int;
  wanted_bytes : int;  (** cost had every distinct want shipped in full *)
}

(** [compute ~site ~possessed wants] — wants deduplicate by key (first
    label wins, order preserved); possessed wants ship nothing.
    Observes [depot.plan_bytes] and bumps [depot.plan_hits]/[_misses]. *)
val compute : site:string -> possessed:(Chash.t -> bool) -> want list -> t

(** Bytes the legacy path would ship: every want in full, duplicates
    included. *)
val legacy_bytes : want list -> int

(** Per-site possession index: which objects each site already holds. *)
module Possession : sig
  type index

  val create : unit -> index
  val mem : index -> site:string -> Chash.t -> bool
  val add : index -> site:string -> Chash.t -> unit

  (** Executing a plan makes the site hold every shipped object. *)
  val commit : index -> t -> unit
end

(** Deterministic text rendering: ship order, then a summary line. *)
val render : t -> string

val to_json : t -> Feam_util.Json.t

(** Journal the plan to the flight recorder: one "want" evidence record
    per deduplicated want with its possession verdict, plus a
    "transfer_plan" payload carrying the rendered text. *)
val journal : wants:want list -> t -> unit

(** Rebuild a recorded want (and its possession verdict at planning
    time) from a "want" evidence record's fields. *)
val want_of_fields : (string * Feam_util.Json.t) list -> (want * bool) option
