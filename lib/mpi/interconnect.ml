(* Interconnection networks.  Part of the MPI stack definition: a stack
   built for InfiniBand needs the user-space verbs libraries and a working
   fabric; on a site without them the stack cannot launch programs. *)

type t = Ethernet | Infiniband | Numalink

let name = function
  | Ethernet -> "Ethernet"
  | Infiniband -> "InfiniBand"
  | Numalink -> "NUMAlink"

let equal (a : t) (b : t) = a = b

(* Can a binary whose stack assumed [binary] run over fabric [site]?
   MPI libraries fall back to TCP transports in practice only when the
   implementation was built with one, which this era's site builds
   generally were; a fabric-specific build on a site without that fabric
   fails at daemon/endpoint setup. *)
let supports ~binary ~site =
  match (binary, site) with
  | Ethernet, _ -> true (* TCP endpoints exist everywhere *)
  | Infiniband, Infiniband -> true
  | Infiniband, (Ethernet | Numalink) -> false
  | Numalink, Numalink -> true
  | Numalink, (Ethernet | Infiniband) -> false
