(** Whole-closure symbol resolution: simulates ld.so's breadth-first
    binding over a link scope and reports what fails to bind.

    Where the library-level determinants ask whether the right {e
    objects} are present, this pass asks whether the scope actually
    {e exports what it imports} — the channel on which the soname-major
    heuristic is unsound (a library can keep its major and still drop a
    symbol). *)

(** One scope member: a label (the DT_NEEDED string or bundle label it
    answers to) and its parsed spec. *)
type member = { mb_label : string; mb_spec : Feam_elf.Spec.t }

(** A successful bind of one import to a definition. *)
type binding = {
  bd_importer : string;
  bd_symbol : string;
  bd_version : string option;
  bd_provider : string;
  bd_provider_pos : int;  (** provider's position in scope order *)
}

(** One import no scope definition satisfies. *)
type miss = {
  miss_importer : string;
  miss_symbol : string;
  miss_version : string option;
  miss_binding : Feam_elf.Spec.sym_binding;
  miss_expected : string option;
      (** the present scope member consulted for the version; [None]
          for unversioned imports, where any member could provide *)
  miss_definitive : bool;
      (** the miss cannot be explained by an absent scope member *)
}

(** A symbol defined by more than one scope member: the first
    definition wins, later ones are interposed. *)
type interposition = {
  ip_symbol : string;
  ip_winner : string;
  ip_shadowed : string list;
}

type t = {
  scope : member list;  (** binding scope, breadth-first load order *)
  complete : bool;
      (** scope closed under DT_NEEDED (modulo [ignore_needed]) *)
  bindings : binding list;
  unresolved_strong : miss list;
  unresolved_weak : miss list;
  interpositions : interposition list;
}

(** Simulate binding over a scope given in load order (root first).
    [ignore_needed] marks DT_NEEDED names deliberately outside the
    scope (e.g. the C library in a bundle context) so they do not
    count against completeness. *)
val run : ?ignore_needed:(string -> bool) -> member list -> t

(** Journal a verdict as {!run} does: one flight-recorder [symcheck]
    decision.  For a caller that hands one result to several readers,
    each of which would otherwise have run the simulation itself. *)
val journal : t -> unit

(** Binding scope of a live resolution: the root plus the resolved
    closure in load order. *)
val of_resolve : Feam_dynlinker.Resolve.t -> t

(** Definitive strong misses: each refutes the library-level (soname)
    acceptance of the closure — the objects are all present, the
    symbols are not. *)
val overturns : t -> miss list

(** ["name@VERSION"] or bare [name]. *)
val symbol_ref : string -> string option -> string

val miss_to_string : miss -> string
val interposition_to_string : interposition -> string
