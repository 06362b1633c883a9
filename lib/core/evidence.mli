(** The determinant<-evidence dependency map and the one atom diff:
    [Tec.decide]'s inputs flattened into flightrec evidence atoms, the
    map from each atom path to the determinants it feeds, and the diff
    that the resident world of drift and the prediction service
    ([Feam_evalharness.Driftrun.World]) and the cold epoch diff
    ([Feam_drift.Invalidate.affected]) both run. *)

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
