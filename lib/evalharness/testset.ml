(* Test-set construction (paper §VI.A): compile each benchmark with each
   utilized MPI stack at each site, keep only the binaries that both
   compile and execute successfully at their home site.  The paper ended
   up with 110 NPB and 147 SPEC MPI2007 binaries this way. *)

open Feam_util
open Feam_sysmodel
open Feam_suites

type binary = {
  id : string; (* "NAS/bt.A@ranger/openmpi-1.3-intel" *)
  benchmark : Benchmark.t;
  home : Site.t;
  install : Stack_install.t; (* the build stack's install at home *)
  home_path : string;
  bytes : string;
  image : Feam_elf.Reader.image; (* the handle of [bytes], as home keeps it *)
  declared_size : int;
}

let binary_id benchmark site install =
  Printf.sprintf "%s/%s@%s/%s"
    (Benchmark.suite_name benchmark.Benchmark.suite)
    benchmark.Benchmark.bench_name (Site.name site)
    (Stack_install.module_name install)

let home_dir install = "/home/user/apps/" ^ Stack_install.module_name install

(* Compile one (benchmark, stack install) pair at its site, honouring the
   benchmark's deterministic compiler exclusions and its seeded compile
   fragility. *)
let try_build (params : Params.t) site install benchmark =
  let stack = Stack_install.stack install in
  let fragility_draw =
    Prng.keyed_bool ~seed:params.Params.seed
      ~p:benchmark.Benchmark.compile_fragility
      (Printf.sprintf "compile/%s/%s/%s" benchmark.Benchmark.bench_name
         (Site.name site)
         (Stack_install.module_name install))
  in
  if not (Benchmark.compiles_with benchmark stack ~fragility_draw) then None
  else
    let program = Benchmark.to_program ~site benchmark in
    match
      Feam_toolchain.Compile.compile_mpi_to site install program
        ~dir:(home_dir install)
    with
    | Error _ -> None
    | Ok path -> (
      let vfs = Site.vfs site in
      match (Vfs.resolve_image vfs path, Vfs.file_size vfs path) with
      | Some (_, image), Some declared_size ->
        Some
          {
            id = binary_id benchmark site install;
            benchmark;
            home = site;
            install;
            home_path = path;
            bytes = Feam_elf.Reader.image_bytes image;
            image;
            declared_size;
          }
      | _ -> None)

(* Does the binary run at its home site (with its own stack loaded)?
   Binaries that fail at home are excluded from the test set, as in the
   paper. *)
let runs_at_home (params : Params.t) binary =
  let env =
    Modules_tool.load_stack (Site.base_env binary.home) binary.install
  in
  match
    Feam_dynlinker.Exec.run ~params:params.Params.exec
      ~attempts:params.Params.attempts binary.home env
      ~binary_path:binary.home_path ~mode:(Feam_dynlinker.Exec.Mpi 4)
  with
  | Feam_dynlinker.Exec.Success -> true
  | Feam_dynlinker.Exec.Failure _ -> false

(* Build the full test set over [sites] for [benchmarks]. *)
let build (params : Params.t) sites benchmarks =
  List.concat_map
    (fun site ->
      List.concat_map
        (fun install ->
          List.filter_map
            (fun benchmark ->
              match try_build params site install benchmark with
              | Some b when runs_at_home params b -> Some b
              | Some b ->
                (* failed at its own compile site: drop it and its file *)
                Vfs.remove (Site.vfs site) b.home_path;
                None
              | None -> None)
            benchmarks)
        (Site.stack_installs site))
    sites

let of_suite suite binaries =
  List.filter (fun b -> b.benchmark.Benchmark.suite = suite) binaries

let count_by_suite binaries =
  ( List.length (of_suite Benchmark.Nas binaries),
    List.length (of_suite Benchmark.Spec_mpi2007 binaries) )

(* An id-keyed lookup over [binaries], built once per call: the first
   binary with the given id, [Not_found] when none has it. *)
let by_id binaries =
  let tbl = Hashtbl.create (List.length binaries) in
  List.iter (fun b -> Hashtbl.add tbl b.id b) (List.rev binaries);
  Hashtbl.find tbl
