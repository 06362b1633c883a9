(* Validates the soname-major heuristic against the symbol closure.

   The library-level determinant (paper §III.D) accepts a closure when
   every DT_NEEDED name is answered by an object of the same soname
   major.  That acceptance is a heuristic: a library can keep its major
   and still drop an exported symbol.  This rule diffs the staged
   copies' exports against what the closure imports and reports every
   edge where the soname check says "ready" but the symbol walk proves
   otherwise — the acceptance was unsound, not merely incomplete. *)

module S = Feam_symcheck.Symcheck

let id = "soname-major-unsound"

let symbols_of misses =
  String.concat ", "
    (List.map (fun (m : S.miss) -> S.symbol_ref m.S.miss_symbol m.S.miss_version) misses)

(* Group the overturning misses by (importer, consulted provider) so
   each unsound acceptance edge is reported once. *)
let group_overturns misses =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (m : S.miss) ->
      let key = (m.S.miss_importer, m.S.miss_expected) in
      (match Hashtbl.find_opt tbl key with
      | None -> order := key :: !order
      | Some _ -> ());
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      Hashtbl.replace tbl key (prev @ [ m ]))
    misses;
  List.rev_map (fun key -> (key, Hashtbl.find tbl key)) !order

let check rule (ctx : Context.t) =
  let r = Context.symbols ctx in
  group_overturns (S.overturns r)
  |> List.map (fun ((importer, expected), misses) ->
         match expected with
         | Some provider ->
           Rule.finding rule ~subject:provider
             ~fixit:
               "trust the symbol-level verdict over the soname match: \
                re-stage the provider from a build that exports the \
                symbols"
             (Printf.sprintf
                "satisfies the soname requirement of %s yet does not \
                 export %s: the soname-major acceptance is unsound here"
                importer (symbols_of misses))
         | None ->
           Rule.finding rule ~subject:importer
             ~fixit:
               "trust the symbol-level verdict over the soname match: \
                re-stage a closure built where the binary links"
             (Printf.sprintf
                "every DT_NEEDED is satisfied at the soname level, yet %s \
                 cannot bind: the soname-major acceptance is unsound for \
                 this closure"
                (symbols_of misses)))

let rec rule =
  {
    Rule.id;
    title = "soname-major acceptance refuted by the symbol closure";
    default_level = Feam_core.Diagnose.Warn;
    explain =
      "Diffs the staged copies' exports against what the closure \
       imports and reports every edge where the library-level \
       soname-major determinant (paper \194\167III.D) says \"ready\" \
       but the symbol walk proves otherwise: a library can keep its \
       major and still drop an exported symbol, making the acceptance \
       unsound rather than merely incomplete.\n\
       Fix: trust the symbol-level verdict over the soname match and \
       re-stage the provider from a build that exports the symbols.";
    check = Rule.Cell (fun ctx -> check rule ctx);
  }
