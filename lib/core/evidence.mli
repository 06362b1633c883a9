(** The determinant<-evidence dependency map and the one atom diff:
    [Tec.decide]'s inputs flattened into flightrec evidence atoms, the
    map from each atom path to the determinants it feeds, and the diff
    that epoch drift ([Feam_drift.Invalidate]) and the resident
    prediction service ([Feam_serve]) both run. *)

type owner = Site_owner of string | Binary_owner of string

val owner_to_string : owner -> string

(** Sites before binaries, each by name. *)
val compare_owner : owner -> owner -> int

type change = {
  ev_owner : owner;
  ev_path : string;
  ev_before : string option;  (** old value; [None] if added *)
  ev_after : string option;  (** new value; [None] if removed *)
  ev_determinants : string list;
      (** determinants the atom feeds; [[]] means verdict-inert *)
}

(** [diff owner olds news]: one owner's atom changes, sorted by path
    and annotated with the determinants each feeds.  The inputs need
    not be sorted; unchanged atoms yield nothing. *)
val diff : owner -> (string * string) list -> (string * string) list -> change list

(** A mutable store of the fleet's current evidence atoms, keyed by
    owner. *)
module Store : sig
  type t

  val create : unit -> t

  (** Total resident atom count. *)
  val size : t -> int

  (** Replace an owner's atoms with a fresh capture; returns
      [diff owner resident fresh]. *)
  val replace : t -> owner -> (string * string) list -> change list
end
