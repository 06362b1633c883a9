(** Unique build identification: a process-global serial folded into a
    comment string in every built image, as real toolchains' build IDs
    and timestamps guarantee.  Keeps the bytes-keyed provenance registry
    collision-free and gives every probe compile an independent
    identity. *)

(** Reset the serial (done per evaluation world for reproducibility). *)
val reset : unit -> unit

(** A fresh .comment-style build-id string.  A running
    {!Feam_util.Effects.capture} notes a [Build]. *)
val next : site_name:string -> string

(** A string as long as every {!next} string, with zero digits: a
    compile template holds it where a stamp puts the build ID. *)
val placeholder : string

(** How many build IDs were handed out since the last {!reset}. *)
val serial : unit -> int

(** Advance the serial as [n] calls to {!next} would, noting [n]
    [Build]s in a running capture: a memo hit replays a build this way,
    so later builds get the IDs they would have had. *)
val skip : int -> unit
