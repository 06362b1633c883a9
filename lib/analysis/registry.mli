(** The rule registry.  The built-in rule set — both tiers — registers
    itself at load time; callers run a curated subset via
    {!Engine.run}'s [?rules]. *)

val find : string -> Rule.t option

(** All registered rules, sorted by id. *)
val all : unit -> Rule.t list

(** The cell tier: rules that check one bundle's {!Context.t} under
    [feam lint]. *)
val cell_rules : unit -> Rule.t list

(** The fleet tier: rules that check the whole matrix's {!Fleet.t}
    under [feam audit]. *)
val fleet_rules : unit -> Rule.t list

(** Rule ids, sorted. *)
val ids : unit -> string list

val cell_ids : unit -> string list
val fleet_ids : unit -> string list

(** Number of registered rules — the single source the docs and
    [--list-rules] derive their counts from, so they cannot drift. *)
val count : unit -> int
