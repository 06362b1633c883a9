(** Unique build identification: a process-global serial folded into a
    comment string in every built image, as real toolchains' build IDs
    and timestamps guarantee.  Keeps the bytes-keyed provenance registry
    collision-free and gives every probe compile an independent
    identity. *)

(** Reset the serial (done per evaluation world for reproducibility). *)
val reset : unit -> unit

(** A fresh .comment-style build-id string. *)
val next : site_name:string -> string

(** How many build IDs were handed out since the last {!reset}. *)
val serial : unit -> int

(** Advance the serial as [n] calls to {!next} would, for work replayed
    from a memo: later builds then get the IDs they would have had. *)
val skip : int -> unit
