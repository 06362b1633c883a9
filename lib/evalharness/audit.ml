(* Fleet-view construction for `feam audit`.  The per-cell pipeline
   answers "can this binary move to that site"; the fleet rules need the
   questions only the whole matrix can answer — which sites skew, which
   binaries are stranded, which stored bytes are dead weight.  This
   module reduces the corpus to the sorted, content-addressed Fleet.t
   those rules check. *)

open Feam_sysmodel
module Fleet = Feam_analysis.Fleet
module Factbase = Feam_analysis.Factbase
module Store = Feam_depot.Store
module Planner = Feam_depot.Planner
module Manifest = Feam_core.Bundle_manifest

let site_of site =
  {
    Fleet.site_name = Site.name site;
    site_machine = Site.machine site;
    site_glibc = Site.glibc site;
    site_stacks =
      Site.stack_installs site
      |> List.map (fun i ->
             Feam_mpi.Impl.slug
               (Feam_mpi.Stack.impl (Feam_sysmodel.Stack_install.stack i)))
      |> List.sort_uniq compare;
  }

let binary_of (b : Testset.binary) =
  {
    Fleet.bin_id = b.Testset.id;
    bin_home = Site.name b.Testset.home;
    bin_impl =
      Some
        (Feam_mpi.Impl.slug
           (Feam_mpi.Stack.impl
              (Feam_sysmodel.Stack_install.stack b.Testset.install)));
    bin_facts = Factbase.facts_of_image b.Testset.image;
  }

let cell_of (m : Migrate.migration) =
  {
    Fleet.cell_binary = m.Migrate.binary.Testset.id;
    cell_home = Site.name m.Migrate.binary.Testset.home;
    cell_target = m.Migrate.target_name;
    cell_basic = m.Migrate.basic_ready;
    cell_extended = m.Migrate.extended_ready;
  }

let build sites binaries migrations =
  let store = Store.create () in
  let possession = Planner.Possession.create () in
  let referenced : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  (* only migrations predicted ready actually ship bytes: an object
     planned solely for not-ready cells stays unreferenced (the depot's
     dead weight) *)
  let ready : (string * string, bool) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (m : Migrate.migration) ->
      Hashtbl.replace ready
        (m.Migrate.binary.Testset.id, m.Migrate.target_name)
        m.Migrate.extended_ready)
    migrations;
  let is_ready binary_id target =
    Option.value (Hashtbl.find_opt ready (binary_id, target)) ~default:false
  in
  (* (name, site, key) -> observation, for dedup *)
  let observed : (string * string * string, Fleet.library) Hashtbl.t =
    Hashtbl.create 256
  in
  let ctx = Feam_core.Eval_ctx.create () in
  Feam_obs.Trace.with_span "audit.build" @@ fun () ->
  List.iter
    (fun (binary : Testset.binary) ->
      match Migrate.source_bundle ~ctx binary with
      | Error _ -> ()
      | Ok bundle ->
        let home = Site.name binary.Testset.home in
        List.iter
          (fun (c : Feam_core.Bdc.library_copy) ->
            let facts = Factbase.facts_of_image c.Feam_core.Bdc.copy_image in
            let key =
              ( c.Feam_core.Bdc.copy_request,
                home,
                Feam_util.Chash.to_hex facts.Factbase.fb_key )
            in
            if not (Hashtbl.mem observed key) then
              Hashtbl.add observed key
                {
                  Fleet.lib_name = c.Feam_core.Bdc.copy_request;
                  lib_site = home;
                  lib_facts = facts;
                })
          bundle.Feam_core.Bundle.copies;
        let manifest = Manifest.of_bundle store bundle in
        let wants = Manifest.wants manifest in
        Migrate.targets sites binary
        |> List.filter (fun target ->
               is_ready binary.Testset.id (Site.name target))
        |> List.iter (fun target ->
               let site = Site.name target in
               let plan =
                 Planner.compute ~site
                   ~possessed:(Planner.Possession.mem possession ~site)
                   wants
               in
               Planner.Possession.commit possession plan;
               List.iter
                 (fun (it : Planner.item) ->
                   Hashtbl.replace referenced
                     (Feam_util.Chash.to_hex it.Planner.it_key)
                     ())
                 plan.Planner.items))
    binaries;
  let libraries =
    Hashtbl.fold (fun _ l acc -> l :: acc) observed []
    |> List.sort (fun (a : Fleet.library) (b : Fleet.library) ->
           compare
             ( a.Fleet.lib_name,
               a.Fleet.lib_site,
               Feam_util.Chash.to_hex a.Fleet.lib_facts.Factbase.fb_key )
             ( b.Fleet.lib_name,
               b.Fleet.lib_site,
               Feam_util.Chash.to_hex b.Fleet.lib_facts.Factbase.fb_key ))
  in
  let store_objects =
    Store.entries store
    |> List.map (fun (e : Store.entry) ->
           {
             Fleet.sto_key = e.Store.e_key;
             sto_soname = e.Store.e_meta.Store.m_soname;
             sto_size = e.Store.e_meta.Store.m_size;
             sto_referenced =
               Hashtbl.mem referenced (Feam_util.Chash.to_hex e.Store.e_key);
           })
  in
  {
    Fleet.sites =
      List.map site_of sites
      |> List.sort (fun (a : Fleet.site) b ->
             compare a.Fleet.site_name b.Fleet.site_name);
    binaries =
      List.map binary_of binaries
      |> List.sort (fun (a : Fleet.binary) b ->
             compare a.Fleet.bin_id b.Fleet.bin_id);
    libraries;
    cells =
      List.map cell_of migrations
      |> List.sort (fun (a : Fleet.cell) b ->
             compare
               (a.Fleet.cell_binary, a.Fleet.cell_target)
               (b.Fleet.cell_binary, b.Fleet.cell_target));
    store = store_objects;
  }

let of_seed ?(on_progress = fun _ -> ()) ~seed () =
  let params = { Params.default with Params.seed } in
  on_progress "Provisioning the five Table II sites...";
  let sites = Sites.build_all params in
  on_progress "Compiling benchmark corpus (NPB 2.4 + SPEC MPI2007)...";
  let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  let binaries = Testset.build params sites benchmarks in
  on_progress "Running migrations...";
  let migrations = Migrate.run_all params sites binaries in
  on_progress "Building the fleet view...";
  build sites binaries migrations
