(** Interconnection networks: part of the MPI stack definition
    (paper §I).  A stack built for InfiniBand needs the user-space verbs
    libraries and a working fabric. *)

type t = Ethernet | Infiniband | Numalink

val name : t -> string
val equal : t -> t -> bool

(** Can a binary whose stack assumed [binary] run over fabric [site]?
    Ethernet/TCP endpoints exist everywhere; fabric-specific builds need
    their fabric. *)
val supports : binary:t -> site:t -> bool
