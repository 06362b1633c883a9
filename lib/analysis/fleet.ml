(* The fleet view a fleet-tier rule checks: pure data, populated by the
   evalharness audit builder (or by hand in tests).  All lists arrive
   sorted per the .mli contract; the accessors here preserve order. *)

type site = {
  site_name : string;
  site_machine : Feam_elf.Types.machine;
  site_glibc : Feam_util.Version.t;
  site_stacks : string list;
}

type library = {
  lib_name : string;
  lib_site : string;
  lib_facts : Factbase.facts;
}

type binary = {
  bin_id : string;
  bin_home : string;
  bin_impl : string option;
  bin_facts : Factbase.facts;
}

type cell = {
  cell_binary : string;
  cell_home : string;
  cell_target : string;
  cell_basic : bool;
  cell_extended : bool;
}

type store_object = {
  sto_key : Feam_util.Chash.t;
  sto_soname : string option;
  sto_size : int;
  sto_referenced : bool;
}

type t = {
  sites : site list;
  binaries : binary list;
  libraries : library list;
  cells : cell list;
  store : store_object list;
}

let cells_of_binary t id =
  List.filter (fun c -> c.cell_binary = id) t.cells

let observations t name =
  List.filter (fun l -> l.lib_name = name) t.libraries

let library_names t =
  List.map (fun l -> l.lib_name) t.libraries |> List.sort_uniq String.compare

let find_site t name = List.find_opt (fun s -> s.site_name = name) t.sites
