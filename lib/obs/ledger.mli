(** The cost ledger: self-cost attribution per matrix cell, per stage
    and per determinant, in wall nanoseconds through an injectable clock
    and in allocated words.  A frame stack subtracts each child
    measurement from its parent, so nested stages never double count.
    With no ledger installed every entry point is a single ref read. *)

type t

val create : ?clock:Clock.t -> unit -> t

(** Make [t] the ambient ledger the instrumentation points charge. *)
val install : t -> unit

val uninstall : unit -> unit

(** Charge everything [f] runs to the named matrix cell. *)
val with_cell : string -> (unit -> 'a) -> 'a

val with_stage : string -> (unit -> 'a) -> 'a
val with_determinant : string -> (unit -> 'a) -> 'a

(** The headline, the per-stage and per-determinant rollups, the [top]
    costliest cells (default 15) and the cache-efficiency table. *)
val render : ?top:int -> t -> string
