(* Depot housekeeping: stored objects no ready migration's transfer
   plan ever ships.  The depot interns every distinct object the corpus
   mentions, but only migrations predicted ready actually move bytes; an
   object staged solely for predicted-to-fail cells is dead weight. *)

let id = "depot-unreferenced"

let check rule (fleet : Fleet.t) =
  let dead =
    List.filter (fun (o : Fleet.store_object) -> not o.Fleet.sto_referenced)
      fleet.Fleet.store
  in
  dead
  |> List.map (fun (o : Fleet.store_object) ->
         let name =
           Option.value o.Fleet.sto_soname ~default:"(no soname)"
         in
         Rule.finding rule
           ~subject:(Feam_util.Chash.short o.Fleet.sto_key)
           ~fixit:"feam depot gc sweeps objects no manifest pins"
           (Printf.sprintf
              "%s (%d bytes) is interned but shipped by no ready migration's \
               transfer plan"
              name o.Fleet.sto_size))

let rec rule =
  {
    Rule.id;
    title = "interned depot objects no ready migration ever ships";
    default_level = Feam_core.Diagnose.Info;
    explain =
      "Diffs the depot store listing against the union of every \
       extended-ready cell's transfer plan.  Only migrations predicted \
       ready actually move bytes, so an interned object shipped by no \
       ready cell is dead weight \226\128\148 staged solely for \
       migrations predicted to fail, or superseded by a newer build \
       everywhere.  Informational by default: unreferenced objects cost \
       disk, not correctness.\n\
       Fix: `feam depot gc` sweeps objects no manifest pins.";
    check = Rule.Fleet (fun fleet -> check rule fleet);
  }
