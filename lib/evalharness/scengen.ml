(* Seeded scenario generator: perturbs the sysmodel/toolchain/elf
   builders into thousands of binary × site configurations for the
   differential agreement harness.

   Determinism discipline: every draw comes from a keyed PRNG stream
   ("scen/<index>/<coordinate>"), and parameter draws are made whether or
   not the perturbation they parameterize is kept.  A scenario is thus a
   pure function of (seed, index, keep) — the contract the disagreement
   minimizer relies on when it undoes perturbations one at a time. *)

open Feam_util
open Feam_mpi
open Feam_sysmodel
open Feam_toolchain

let v = Version.of_string_exn

type perturbation =
  | Cross_isa
  | Glibc_downgrade
  | Drop_stack
  | Unregistered_stack
  | Misconfigured_stack
  | Stale_ld_cache
  | Remove_lib of string
  | Major_skew of string
  | Vintage_downgrade of string
  | Foreign_lib of string
  | Ld_path_interpose of string
  | Rpath_decoy of string
  | Runpath_ghost
  | Strip_comments
  | Strip_verneed
  | Drop_bundle_copy of string
  | Remove_interp

(* Stable kebab-case tag, doubling as the draw key for inclusion. *)
let tag = function
  | Cross_isa -> "cross-isa"
  | Glibc_downgrade -> "glibc-downgrade"
  | Drop_stack -> "drop-stack"
  | Unregistered_stack -> "unregistered-stack"
  | Misconfigured_stack -> "misconfigured-stack"
  | Stale_ld_cache -> "stale-ld-cache"
  | Remove_lib _ -> "remove-lib"
  | Major_skew _ -> "major-skew"
  | Vintage_downgrade _ -> "vintage-downgrade"
  | Foreign_lib _ -> "foreign-lib"
  | Ld_path_interpose _ -> "ld-path-interpose"
  | Rpath_decoy _ -> "rpath-decoy"
  | Runpath_ghost -> "runpath-ghost"
  | Strip_comments -> "strip-comments"
  | Strip_verneed -> "strip-verneed"
  | Drop_bundle_copy _ -> "drop-bundle-copy"
  | Remove_interp -> "remove-interp"

let payload = function
  | Remove_lib l | Major_skew l | Vintage_downgrade l | Foreign_lib l
  | Ld_path_interpose l | Rpath_decoy l | Drop_bundle_copy l ->
    Some l
  | Cross_isa | Glibc_downgrade | Drop_stack | Unregistered_stack
  | Misconfigured_stack | Stale_ld_cache | Runpath_ghost | Strip_comments
  | Strip_verneed | Remove_interp ->
    None

let perturbation_to_string p =
  match payload p with Some l -> tag p ^ " " ^ l | None -> tag p

type t = {
  sc_seed : int;
  sc_index : int;
  sc_all : perturbation list;
  sc_keep : int list;
  sc_home : Site.t;
  sc_target : Site.t;
  sc_home_install : Stack_install.t option;
  sc_target_install : Stack_install.t option;
  sc_program : Compile.program;
  sc_binary_path : string;
  sc_binary_bytes : string;
  sc_extra_ld_dirs : string list;
}

let id t = Printf.sprintf "%d/%d" t.sc_seed t.sc_index

let applied t =
  List.filteri (fun i _ -> List.mem i t.sc_keep) t.sc_all

(* -- Site profiles -------------------------------------------------------- *)

type profile = {
  pf_glibc : string;
  pf_gcc : string;
  pf_flavor : Distro.flavor;
  pf_distro : string;
  pf_kernel : string;
}

(* The Table II era, oldest first (index 0 is the Glibc_downgrade
   override target). *)
let profiles =
  [
    { pf_glibc = "2.3.4"; pf_gcc = "3.4.6"; pf_flavor = Distro.Centos;
      pf_distro = "4.9"; pf_kernel = "2.6.9" };
    { pf_glibc = "2.5"; pf_gcc = "4.1.2"; pf_flavor = Distro.Rhel;
      pf_distro = "5.6"; pf_kernel = "2.6.18" };
    { pf_glibc = "2.11.1"; pf_gcc = "4.4.3"; pf_flavor = Distro.Sles;
      pf_distro = "11"; pf_kernel = "2.6.32" };
    { pf_glibc = "2.12"; pf_gcc = "4.4.5"; pf_flavor = Distro.Rhel;
      pf_distro = "6.1"; pf_kernel = "2.6.32" };
  ]

let generation_of pf =
  if Version.major (v pf.pf_distro) <= 5 then Libdb.Old_generation
  else Libdb.New_generation

let batch =
  Batch.make
    ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 5.0 } ]

let make_site ~world ~name ~machine pf =
  Site.make ~world
    ~description:
      (Printf.sprintf "generated %s (%s %s, glibc %s)" name
         (Distro.flavor_name pf.pf_flavor) pf.pf_distro pf.pf_glibc)
    ~compilers:[ Compiler.make Compiler.Gnu (v pf.pf_gcc) ]
    ~seed:0 ~fault_model:Fault_model.none ~machine
    ~distro:
      (Distro.make pf.pf_flavor ~version:(v pf.pf_distro)
         ~kernel:(v pf.pf_kernel))
    ~glibc:(v pf.pf_glibc) ~interconnect:Interconnect.Ethernet ~batch name

(* -- Library-image surgery ------------------------------------------------ *)

(* Paths carrying [name] (the image) or its dev link at [site]. *)
let lib_paths site name =
  Vfs.find_by_basename (Site.vfs site) (fun b -> b = name)

let dev_link_paths site name =
  match Soname.of_string name with
  | None -> []
  | Some so ->
    let link = Soname.link_name so in
    if link = name then []
    else Vfs.find_by_basename (Site.vfs site) (fun b -> b = link)

(* The spec and declared size of the ELF file at [path], parsed through
   the file's image handle; [None] when it is absent or does not parse. *)
let installed_spec site path =
  let vfs = Site.vfs site in
  match (Vfs.resolve_image vfs path, Vfs.file_size vfs path) with
  | Some (_, image), Some declared_size ->
    Result.to_option
      (Result.map
         (fun parsed -> (Feam_elf.Reader.spec parsed, declared_size))
         (Feam_elf.Reader.parse_image image))
  | _ -> None

(* Rewrite every installed image of [name] at [site] through a spec
   transform; a no-op when the library (or its parse) is absent. *)
let mutate_lib site name f =
  List.iter
    (fun path ->
      match installed_spec site path with
      | Some (spec, declared_size) ->
        Vfs.add ~declared_size (Site.vfs site) path
          (Vfs.Elf (Feam_elf.Builder.build (f spec)))
      | None -> ())
    (lib_paths site name)

(* Drop the newest vintage feature symbol a library exports, keeping
   its soname — the channel on which soname-major acceptance is
   unsound. *)
let drop_newest_feature (spec : Feam_elf.Spec.t) =
  let feature_rank (d : Feam_elf.Spec.dynsym) =
    if not d.Feam_elf.Spec.sym_defined then None
    else begin
      let name = d.Feam_elf.Spec.sym_name in
      let marker = "_feature_r" in
      let mlen = String.length marker and nlen = String.length name in
      let rec find i =
        if i + mlen > nlen then None
        else if String.sub name i mlen = marker then
          int_of_string_opt (String.sub name (i + mlen) (nlen - i - mlen))
        else find (i + 1)
      in
      find 0
    end
  in
  let newest =
    List.fold_left
      (fun acc d ->
        match feature_rank d with
        | Some r when acc < r -> r
        | _ -> acc)
      0 spec.Feam_elf.Spec.dynsyms
  in
  if newest = 0 then spec
  else
    {
      spec with
      Feam_elf.Spec.dynsyms =
        List.filter
          (fun d -> feature_rank d <> Some newest)
          spec.Feam_elf.Spec.dynsyms;
    }

(* Make the library look copied from a newer-glibc system: its libc
   verneed (and one import) references a version the target's C library
   does not define.  No-op when the target already runs the newest
   release the model knows. *)
let foreignize ~target_glibc (spec : Feam_elf.Spec.t) =
  let newer =
    List.find_opt
      (fun r -> Version.compare r target_glibc > 0)
      Glibc.release_history
  in
  match newer with
  | None -> spec
  | Some ver ->
    let sym = Glibc.symbol_of_version ver in
    let libc = Soname.to_string Glibc.libc_soname in
    let add_verneed vns =
      let updated = ref false in
      let vns =
        List.map
          (fun (vn : Feam_elf.Spec.verneed) ->
            if vn.Feam_elf.Spec.vn_file = libc then begin
              updated := true;
              { vn with Feam_elf.Spec.vn_versions =
                  vn.Feam_elf.Spec.vn_versions @ [ sym ] }
            end
            else vn)
          vns
      in
      if !updated then vns
      else vns @ [ { Feam_elf.Spec.vn_file = libc; vn_versions = [ sym ] } ]
    in
    let import =
      {
        Feam_elf.Spec.sym_name = Glibc.representative_symbol ver;
        sym_defined = false;
        sym_binding = Feam_elf.Spec.Global;
        sym_version = Some sym;
      }
    in
    {
      spec with
      Feam_elf.Spec.verneeds = add_verneed spec.Feam_elf.Spec.verneeds;
      dynsyms = spec.Feam_elf.Spec.dynsyms @ [ import ];
    }

(* Bump a library's soname major, renaming its on-disk image: the old
   major disappears, the new one answers a name nothing requested. *)
let apply_major_skew site name =
  match Soname.of_string name with
  | None -> ()
  | Some so -> (
    match Soname.version so with
    | [] -> ()
    | major :: rest ->
      let bumped = Soname.make ~version:((major + 1) :: rest) (Soname.base so) in
      let new_name = Soname.to_string bumped in
      List.iter
        (fun path ->
          match installed_spec site path with
          | Some (spec, declared_size) ->
            let spec' =
              {
                spec with
                Feam_elf.Spec.soname = Some new_name;
                verdefs =
                  List.map
                    (fun d -> if d = name then new_name else d)
                    spec.Feam_elf.Spec.verdefs;
              }
            in
            Vfs.remove (Site.vfs site) path;
            Vfs.add ~declared_size (Site.vfs site)
              (Vfs.dirname path ^ "/" ^ new_name)
              (Vfs.Elf (Feam_elf.Builder.build spec'))
          | None -> ())
        (lib_paths site name);
      List.iter (Vfs.remove (Site.vfs site)) (dev_link_paths site name))

let apply_remove_lib site name =
  List.iter (Vfs.remove (Site.vfs site)) (lib_paths site name);
  List.iter (Vfs.remove (Site.vfs site)) (dev_link_paths site name)

let interpose_dir = "/opt/interpose/lib"
let decoy_dir = "/opt/decoy/lib"

(* A stale build of [name] placed where LD_LIBRARY_PATH will find it
   first: same soname, one vintage step behind. *)
let apply_interpose site name =
  match lib_paths site name with
  | [] -> ()
  | path :: _ -> (
    match installed_spec site path with
    | Some (spec, declared_size) ->
      Vfs.add ~declared_size (Site.vfs site)
        (interpose_dir ^ "/" ^ name)
        (Vfs.Elf (Feam_elf.Builder.build (drop_newest_feature spec)))
    | None -> ())

(* A wrong-architecture build of [name] in the decoy directory the
   binary's DT_RPATH points at. *)
let apply_decoy site name =
  match lib_paths site name with
  | [] -> ()
  | path :: _ -> (
    match installed_spec site path with
    | Some (spec, declared_size) ->
      let wrong_machine =
        match spec.Feam_elf.Spec.machine with
        | Feam_elf.Types.PPC64 -> Feam_elf.Types.X86_64
        | _ -> Feam_elf.Types.PPC64
      in
      let spec' =
        Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN
          ?soname:spec.Feam_elf.Spec.soname
          ~needed:spec.Feam_elf.Spec.needed
          ~comments:spec.Feam_elf.Spec.comments wrong_machine
      in
      Vfs.add ~declared_size (Site.vfs site) (decoy_dir ^ "/" ^ name)
        (Vfs.Elf (Feam_elf.Builder.build spec'))
    | None -> ())

let apply_remove_interp site =
  let loader = Feam_elf.Types.default_interp (Site.machine site) in
  Vfs.remove (Site.vfs site) loader

(* -- Generation ----------------------------------------------------------- *)

(* Inclusion probability per perturbation, in canonical catalog order.
   Tuned so a scenario carries ~1.5 perturbations on average: enough
   healthy runs to score precision, enough compound cases to give the
   minimizer real work. *)
let catalog ~focus =
  [
    (0.06, Cross_isa);
    (0.10, Glibc_downgrade);
    (0.08, Drop_stack);
    (0.08, Unregistered_stack);
    (0.08, Misconfigured_stack);
    (0.10, Stale_ld_cache);
    (0.10, Remove_lib focus);
    (0.10, Major_skew focus);
    (0.12, Vintage_downgrade focus);
    (0.12, Foreign_lib focus);
    (0.08, Ld_path_interpose focus);
    (0.08, Rpath_decoy focus);
    (0.06, Runpath_ghost);
    (0.10, Strip_comments);
    (0.08, Strip_verneed);
    (0.08, Drop_bundle_copy focus);
    (0.05, Remove_interp);
  ]

let build ~seed ~index ?keep () =
  (* Per-scenario world: scenario i built standalone equals scenario i
     built mid-corpus. *)
  let world = Build_world.create () in
  let stream what = Prng.of_key ~seed (Printf.sprintf "scen/%d/%s" index what) in
  let draw_bool what p = Prng.bool (stream what) p in
  let draw_pick what xs = Prng.pick (stream what) xs in
  (* Base configuration. *)
  let home_pf = draw_pick "home-profile" profiles in
  let target_pf0 = draw_pick "target-profile" profiles in
  let uses_mpi = draw_bool "uses-mpi" 0.6 in
  let language =
    if draw_bool "language" 0.3 then Stack.Fortran else Stack.C
  in
  let demanding = draw_bool "appetite" 0.35 in
  let impl = draw_pick "impl" [ Impl.Open_mpi; Impl.Mpich2 ] in
  let with_scientific = draw_bool "scientific" 0.5 in
  let family = draw_pick "family" [ Libdb.Fftw; Libdb.Hdf5 ] in
  let sci_soname =
    Soname.to_string (Libdb.scientific_soname family (generation_of home_pf))
  in
  let focus =
    if with_scientific && draw_bool "focus" 0.5 then sci_soname
    else Soname.to_string Libdb.libz.Libdb.soname
  in
  (* Perturbation draws: inclusion per catalog entry, keyed by tag so
     entries never shift each other. *)
  let eligible = function
    | Drop_stack | Unregistered_stack | Misconfigured_stack -> uses_mpi
    | _ -> true
  in
  let all =
    List.filter_map
      (fun (p, pert) ->
        let included =
          Prng.keyed_bool ~seed ~p
            (Printf.sprintf "scen/%d/pert/%s" index (tag pert))
        in
        if included && eligible pert then Some pert else None)
      (catalog ~focus)
  in
  let keep =
    match keep with
    | Some k -> List.sort_uniq compare (List.filter (fun i -> i >= 0 && i < List.length all) k)
    | None -> List.init (List.length all) (fun i -> i)
  in
  let applied = List.filteri (fun i _ -> List.mem i keep) all in
  let has p = List.exists (fun q -> tag q = tag p) applied in
  (* Sites. *)
  let target_pf = if has Glibc_downgrade then List.hd profiles else target_pf0 in
  let target_machine =
    if has Cross_isa then Feam_elf.Types.PPC64 else Feam_elf.Types.X86_64
  in
  let home = make_site ~world ~name:"home" ~machine:Feam_elf.Types.X86_64 home_pf in
  let target = make_site ~world ~name:"target" ~machine:target_machine target_pf in
  let mk_stack pf =
    Stack.make ~impl ~impl_version:(v "1.4")
      ~compiler:(Compiler.make Compiler.Gnu (v pf.pf_gcc))
      ~interconnect:Interconnect.Ethernet
  in
  let home_install =
    let installs =
      Provision.provision_site home
        ~stacks:
          (if uses_mpi then [ (mk_stack home_pf, Stack_install.Functioning) ]
           else [])
    in
    match installs with i :: _ -> Some i | [] -> None
  in
  let target_install =
    ignore (Provision.provision_site target ~stacks:[]);
    if uses_mpi && not (has Drop_stack) then begin
      let health =
        if has Misconfigured_stack then
          Stack_install.Misconfigured
            "administrator updated the compiler without retesting this stack"
        else Stack_install.Functioning
      in
      let registered = not (has Unregistered_stack) in
      let install =
        Provision.provision_stack target ~health ~registered (mk_stack target_pf)
      in
      Modules_tool.provision target;
      Some install
    end
    else None
  in
  (* The program and its compile at home. *)
  let extra_libs =
    Libdb.libz.Libdb.soname
    :: (if with_scientific then [ Soname.of_string_exn sci_soname ] else [])
  in
  let glibc_appetite = if demanding then v home_pf.pf_glibc else Libdb.portable in
  let program =
    Compile.program ~language ~uses_mpi ~glibc_appetite ~extra_libs
      (Printf.sprintf "scenapp_%d" index)
  in
  let binary_path =
    if uses_mpi then
      match home_install with
      | Some install -> (
        match Compile.compile_mpi_to home install program ~dir:"/home/user/bin" with
        | Ok path -> path
        | Error e -> failwith ("scengen compile: " ^ Compile.error_to_string e))
      | None -> failwith "scengen: MPI program without a home stack"
    else
      match Compile.compile_serial home program with
      | Error e -> failwith ("scengen compile: " ^ Compile.error_to_string e)
      | Ok image ->
        let path = "/home/user/bin/" ^ program.Compile.prog_name in
        Vfs.add_image
          ~declared_size:(Compile.declared_size program)
          (Site.vfs home) path image;
        path
  in
  (* Binary perturbations, rewritten in place at home so the source
     phase (and every copy taken from it) sees the tampered image. *)
  let original =
    match Vfs.resolve_image (Site.vfs home) binary_path with
    | Some (_, image) -> image
    | None -> failwith "scengen: compiled binary vanished"
  in
  let original_bytes = Feam_elf.Reader.image_bytes original in
  let binary_spec_mutations =
    List.concat
      [
        (if has (Rpath_decoy focus) then
           [ (fun s -> { s with Feam_elf.Spec.rpath = Some decoy_dir }) ]
         else []);
        (if has Runpath_ghost then
           [ (fun s -> { s with Feam_elf.Spec.runpath = Some "/tmp/ghost-libs" }) ]
         else []);
        (if has Strip_verneed then
           [ (fun s -> { s with Feam_elf.Spec.verneeds = [] }) ]
         else []);
        (if has Strip_comments then
           [ (fun s -> { s with Feam_elf.Spec.comments = [] }) ]
         else []);
      ]
  in
  let binary_bytes =
    if binary_spec_mutations = [] then original_bytes
    else begin
      match Feam_elf.Reader.parse_image original with
      | Error _ -> original_bytes
      | Ok parsed ->
        let spec = Feam_elf.Reader.spec parsed in
        let spec' =
          List.fold_left (fun s f -> f s) spec binary_spec_mutations
        in
        let bytes = Feam_elf.Builder.build spec' in
        Vfs.add
          ~declared_size:(Compile.declared_size program)
          (Site.vfs home) binary_path (Vfs.Elf bytes);
        (* A stripped .comment hides the binary's identity from the
           world's provenance table too — that is the point of the
           perturbation.  Every other tamper keeps the program's ABI
           identity. *)
        (if not (has Strip_comments) then
           match Build_world.find world (Feam_elf.Reader.image_digest original) with
           | Some prov -> Build_world.register world (Digest.string bytes) prov
           | None -> ());
        bytes
    end
  in
  (* Target-side library surgery, in canonical catalog order. *)
  if has Stale_ld_cache then Site.set_ld_cache_current target false;
  if has (Remove_lib focus) then apply_remove_lib target focus;
  if has (Major_skew focus) then apply_major_skew target focus;
  if has (Vintage_downgrade focus) then
    mutate_lib target focus drop_newest_feature;
  if has (Foreign_lib focus) then
    mutate_lib target focus (foreignize ~target_glibc:(Site.glibc target));
  if has (Ld_path_interpose focus) then apply_interpose target focus;
  if has (Rpath_decoy focus) then apply_decoy target focus;
  if has Remove_interp then apply_remove_interp target;
  let extra_ld_dirs =
    if has (Ld_path_interpose focus) then [ interpose_dir ] else []
  in
  {
    sc_seed = seed;
    sc_index = index;
    sc_all = all;
    sc_keep = keep;
    sc_home = home;
    sc_target = target;
    sc_home_install = home_install;
    sc_target_install = target_install;
    sc_program = program;
    sc_binary_path = binary_path;
    sc_binary_bytes = binary_bytes;
    sc_extra_ld_dirs = extra_ld_dirs;
  }

let bundle_filter t bundle =
  let dropped =
    List.filter_map
      (function Drop_bundle_copy l -> Some l | _ -> None)
      (applied t)
  in
  if dropped = [] then bundle
  else
    {
      bundle with
      Feam_core.Bundle.copies =
        List.filter
          (fun c ->
            not (List.mem c.Feam_core.Bdc.copy_request dropped))
          bundle.Feam_core.Bundle.copies;
    }
