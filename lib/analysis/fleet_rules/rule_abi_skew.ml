(* Cross-site ABI skew: the same library name observed at two or more
   sites with different payload bytes.  Content divergence alone is
   informational (rebuilds of the same source differ by build id); a
   divergence in the *exported symbol set* is the real hazard — a binary
   that links at one site can miss symbols at another even though every
   site claims to provide the library (cf. the MPI ABI standardization
   motivation in PAPERS.md). *)

let id = "abi-skew"

(* Distinct (key, exports) variants of one name, keyed for reporting:
   each variant lists the sites that carry it, sites sorted. *)
let variants obs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (l : Fleet.library) ->
      let key = Feam_util.Chash.to_hex l.Fleet.lib_facts.Factbase.fb_key in
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      Hashtbl.replace tbl key (l.Fleet.lib_site :: prev))
    obs;
  Hashtbl.fold (fun key sites acc -> (key, List.sort_uniq compare sites) :: acc) tbl []
  |> List.sort compare

let export_sets obs =
  List.map (fun (l : Fleet.library) -> l.Fleet.lib_facts.Factbase.fb_exports) obs
  |> List.sort_uniq compare

let check rule (fleet : Fleet.t) =
  Fleet.library_names fleet
  |> List.concat_map (fun name ->
         let obs = Fleet.observations fleet name in
         let sites =
           List.map (fun (l : Fleet.library) -> l.Fleet.lib_site) obs
           |> List.sort_uniq compare
         in
         let vs = variants obs in
         if List.length sites < 2 || List.length vs < 2 then []
         else
           let detail =
             vs
             |> List.map (fun (key, vsites) ->
                    Printf.sprintf "%s at %s" (String.sub key 0 12)
                      (String.concat "," vsites))
             |> String.concat "; "
           in
           if List.length (export_sets obs) > 1 then
             [
               Rule.finding rule ~subject:name
                 ~fixit:
                   "rebuild the library from one source at every site, or \
                    ship one canonical copy through the depot"
                 (Printf.sprintf
                    "%d sites carry %d distinct builds with different \
                     exported symbol sets (%s): a binary linking at one \
                     site can miss symbols at another"
                    (List.length sites) (List.length vs) detail);
             ]
           else
             [
               Rule.finding rule ~level:Feam_core.Diagnose.Info ~subject:name
                 (Printf.sprintf
                    "%d sites carry %d distinct builds with identical \
                     exports (%s): content skew only"
                    (List.length sites) (List.length vs) detail);
             ])

let rec rule =
  {
    Rule.id;
    title = "same library name, diverging content or exports across sites";
    default_level = Feam_core.Diagnose.Warn;
    explain =
      "Groups every observed copy of each library name by content hash \
       across all sites.  Two or more distinct builds of one name are \
       informational when their exported symbol sets agree (rebuild \
       skew); they are a warning when the export sets differ, because a \
       binary that links at one site can then miss symbols at another \
       even though every site nominally provides the library.\n\
       Fix: rebuild the library from one source everywhere, or ship one \
       canonical copy through the depot.";
    check = Rule.Fleet (fun fleet -> check rule fleet);
  }
