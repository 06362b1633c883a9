(* Availability of the Unix utilities FEAM relies on.  The paper gathers
   each piece of information "in multiple ways ... in case some tools are
   not present or functioning at a particular target site" (§V); this
   record is what makes those fallback paths exercisable in tests. *)

type t = {
  objdump : bool;
  readelf : bool;
  ldd : bool;          (* also covers the "ldd does not recognize the binary" failure *)
  locate : bool;       (* locate database present and fresh *)
  uname : bool;
  find : bool;
  c_compiler : bool;   (* native serial compiler available to build probes *)
}

let full =
  {
    objdump = true;
    readelf = true;
    ldd = true;
    locate = true;
    uname = true;
    find = true;
    c_compiler = true;
  }
