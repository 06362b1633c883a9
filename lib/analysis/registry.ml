(* The pluggable rule registry.  Built-in rules are referenced
   explicitly (module initializers alone would never be linked), so the
   set is deterministic and self-documenting.  Both tiers live in one
   namespace: cell rules run per bundle under `feam lint`, fleet rules
   once per matrix under `feam audit`. *)

let rules : (string, Rule.t) Hashtbl.t = Hashtbl.create 16

let register (r : Rule.t) =
  if Hashtbl.mem rules r.Rule.id then
    invalid_arg (Printf.sprintf "Registry.register: duplicate rule id %S" r.Rule.id)
  else Hashtbl.replace rules r.Rule.id r

let find id = Hashtbl.find_opt rules id

let all () =
  Hashtbl.fold (fun _ r acc -> r :: acc) rules []
  |> List.sort (fun a b -> String.compare a.Rule.id b.Rule.id)

let cell_rules () = List.filter (fun r -> not (Rule.is_fleet r)) (all ())
let fleet_rules () = List.filter Rule.is_fleet (all ())
let ids () = List.map (fun r -> r.Rule.id) (all ())
let cell_ids () = List.map (fun r -> r.Rule.id) (cell_rules ())
let fleet_ids () = List.map (fun r -> r.Rule.id) (fleet_rules ())

let count () = Hashtbl.length rules

let () =
  List.iter register
    [
      Rule_glibc_verneed.rule;
      Rule_soname_major.rule;
      Rule_dep_cycle.rule;
      Rule_isa_closure.rule;
      Rule_interp.rule;
      Rule_rpath.rule;
      Rule_stale.rule;
      Rule_missing.rule;
      Rule_soname_parse.rule;
      Rule_symbol_unresolved.rule;
      Rule_symbol_interposed.rule;
      Rule_soname_unsound.rule;
      Rule_bundle_entry.rule;
      Rule_abi_skew.rule;
      Rule_fleet_orphan.rule;
      Rule_glibc_laggard.rule;
      Rule_depot_unreferenced.rule;
      Rule_stack_partition.rule;
    ]
