(* The same symbol defined by more than one object in the staged
   closure: ld.so binds every reference to the first definition in
   scope order, silently interposing the rest.  Usually a sign that two
   copies of the same code were staged at different builds — behaviour
   then depends on load order, which LD_LIBRARY_PATH staging is free to
   change. *)

module S = Feam_symcheck.Symcheck

let id = "symbol-interposed"

let check rule (ctx : Context.t) =
  let r = Context.symbols ctx in
  List.map
    (fun (i : S.interposition) ->
      Rule.finding rule ~subject:i.S.ip_symbol
        ~fixit:
          "keep a single provider of the symbol in the bundle so binding \
           does not depend on scope order"
        (Printf.sprintf
           "defined by %s and also by %s: the first definition in scope \
            order interposes the rest"
           i.S.ip_winner
           (String.concat ", " i.S.ip_shadowed)))
    r.S.interpositions

let rec rule =
  {
    Rule.id;
    title = "one symbol defined by several staged objects";
    default_level = Feam_core.Diagnose.Warn;
    explain =
      "Reports symbols defined by more than one object in the staged \
       closure.  ld.so binds every reference to the first definition in \
       scope order and silently interposes the rest \226\128\148 usually \
       a sign that two copies of the same code were staged from \
       different builds, so behaviour depends on load order, which \
       LD_LIBRARY_PATH staging is free to change.\n\
       Fix: keep a single provider of each symbol in the bundle.";
    check = Rule.Cell (fun ctx -> check rule ctx);
  }
