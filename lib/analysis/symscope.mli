(** Shared scope construction for the symbol-level rules. *)

(** Run the symbol-binding simulation over the bundle's staged scope
    (the root binary plus the copies reachable over DT_NEEDED), with
    C-library names exempt from the completeness requirement. *)
val result : Context.t -> Feam_symcheck.Symcheck.t
