(** Availability of the Unix utilities FEAM relies on.  The paper gathers
    each piece of information "in multiple ways ... in case some tools
    are not present or functioning" (§V); this record makes those
    fallback paths exercisable. *)

type t = {
  objdump : bool;
  readelf : bool;
  ldd : bool;
  locate : bool;  (** locate database present and fresh *)
  uname : bool;
  find : bool;
  c_compiler : bool;  (** native serial compiler for building probes *)
}

(** Everything available. *)
val full : t
