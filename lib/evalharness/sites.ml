(* The five computing environments of paper Table II, provisioned as full
   simulated sites: OS, C library, native compilers, interconnect and the
   utilized MPI stack matrix.  Stack health (misconfigurations and
   foreign-binary defects) is drawn deterministically from the evaluation
   seed, per install. *)

open Feam_util
open Feam_mpi
open Feam_sysmodel
open Feam_toolchain

let v = Version.of_string_exn

let gnu ver = Compiler.make Compiler.Gnu (v ver)
let intel ver = Compiler.make Compiler.Intel (v ver)
let pgi ver = Compiler.make Compiler.Pgi (v ver)

(* Interconnect assumption baked into a stack's build: MVAPICH2 is the
   InfiniBand MPI; Open MPI and MPICH2 site builds of this era kept TCP
   transports and run over any fabric. *)
let stack_interconnect = function
  | Impl.Mvapich2 -> Interconnect.Infiniband
  | Impl.Open_mpi | Impl.Mpich2 -> Interconnect.Ethernet

let stack impl version compiler =
  Stack.make ~impl ~impl_version:(v version) ~compiler
    ~interconnect:(stack_interconnect impl)

(* Health of one stack install, drawn from the seed. *)
let draw_health (params : Params.t) ~site_name st =
  let slug = Stack.slug st in
  let key what = Printf.sprintf "%s/%s/%s" what site_name slug in
  if Prng.keyed_bool ~seed:params.Params.seed ~p:params.Params.p_misconfigured (key "misconfig")
  then
    Stack_install.Misconfigured
      "administrator updated the compiler without retesting this stack"
  else if
    Prng.keyed_bool ~seed:params.Params.seed ~p:params.Params.p_stack_defect
      (key "defect")
  then begin
    (* Foreign builds with any *other* version of this implementation hit
       the defect; same-version builds are fine. *)
    let all_versions =
      match Stack.impl st with
      | Impl.Open_mpi -> [ "1.3"; "1.4" ]
      | Impl.Mvapich2 -> [ "1.2"; "1.7rc1"; "1.7a2"; "1.7a" ]
      | Impl.Mpich2 -> [ "1.4"; "1.3" ]
    in
    let affected =
      all_versions |> List.map v
      |> List.filter (fun ver -> not (Version.equal ver (Stack.impl_version st)))
    in
    let symptom =
      if Prng.keyed_bool ~seed:params.Params.seed ~p:0.5 (key "symptom") then
        `Abi_incompatibility
      else `Floating_point_error
    in
    Stack_install.Foreign_binary_defect
      { Stack_install.affected_build_versions = affected; symptom }
  end
  else Stack_install.Functioning

type spec = {
  site_name : string;
  site_description : string;
  distro : Distro.t;
  glibc : string;
  interconnect : Interconnect.t;
  compilers : Compiler.t list;
  stacks : Stack.t list;
  modules_flavor : Site.modules_flavor;
  tools : Tools.t;
  batch : Batch.t;
}

let queue name wait = { Batch.queue_name = name; wait_seconds = wait }

let specs =
  [
    {
      site_name = "ranger";
      site_description = "XSEDE Ranger, TACC (MPP - 62,976 CPUs)";
      distro = Distro.make Distro.Centos ~version:(v "4.9") ~kernel:(v "2.6.9");
      glibc = "2.3.4";
      interconnect = Interconnect.Infiniband;
      compilers = [ gnu "3.4.6"; intel "10.1"; pgi "7.2" ];
      stacks =
        (let compilers = [ intel "10.1"; gnu "3.4.6"; pgi "7.2" ] in
         List.map (stack Impl.Open_mpi "1.3") compilers
         @ List.map (stack Impl.Mvapich2 "1.2") compilers);
      modules_flavor = Site.Environment_modules;
      tools = Tools.full;
      batch =
        Batch.make ~queues:[ queue "development" 20.0; queue "normal" 600.0 ];
    };
    {
      site_name = "forge";
      site_description = "XSEDE Forge, NCSA (Hybrid CPU/GPU - 576)";
      distro = Distro.make Distro.Rhel ~version:(v "6.1") ~kernel:(v "2.6.32");
      glibc = "2.12";
      interconnect = Interconnect.Infiniband;
      compilers = [ gnu "4.4.5"; intel "12" ];
      stacks =
        [
          stack Impl.Open_mpi "1.4" (gnu "4.4.5");
          stack Impl.Open_mpi "1.4" (intel "12");
          stack Impl.Mvapich2 "1.7rc1" (intel "12");
        ];
      modules_flavor = Site.Environment_modules;
      tools = Tools.full;
      batch = Batch.make ~queues:[ queue "debug" 15.0; queue "batch" 900.0 ];
    };
    {
      site_name = "blacklight";
      site_description = "XSEDE Blacklight, PSC (SMP - 4,096)";
      distro = Distro.make Distro.Sles ~version:(v "11") ~kernel:(v "2.6.32");
      glibc = "2.11.1";
      interconnect = Interconnect.Numalink;
      compilers = [ gnu "4.4.3"; intel "11.1" ];
      stacks =
        [
          stack Impl.Open_mpi "1.4" (intel "11.1");
          stack Impl.Open_mpi "1.4" (gnu "4.4.3");
        ];
      modules_flavor = Site.Environment_modules;
      (* No locate database on the stripped SGI front-end: exercises the
         find(1) fallback of the search methods. *)
      tools = { Tools.full with Tools.locate = false };
      batch =
        Batch.make ~queues:[ queue "debug" 30.0; queue "batch" 1200.0 ];
    };
    {
      site_name = "india";
      site_description = "FutureGrid India, Indiana University (Cluster - 920)";
      distro = Distro.make Distro.Rhel ~version:(v "5.6") ~kernel:(v "2.6.18");
      glibc = "2.5";
      interconnect = Interconnect.Infiniband;
      compilers = [ gnu "4.1.2"; intel "11.1" ];
      stacks =
        (let compilers = [ intel "11.1"; gnu "4.1.2" ] in
         List.map (stack Impl.Open_mpi "1.4") compilers
         @ List.map (stack Impl.Mvapich2 "1.7a2") compilers
         @ List.map (stack Impl.Mpich2 "1.4") compilers);
      (* FutureGrid ran SoftEnv: exercises the second user-environment
         management tool (paper §V.B). *)
      modules_flavor = Site.Softenv;
      tools = Tools.full;
      batch =
        Batch.make ~queues:[ queue "debug" 10.0; queue "batch" 300.0 ];
    };
    {
      site_name = "fir";
      site_description = "ITS Fir, University of Virginia (Cluster - 1,496)";
      distro = Distro.make Distro.Centos ~version:(v "5.6") ~kernel:(v "2.6.18");
      glibc = "2.5";
      interconnect = Interconnect.Infiniband;
      compilers = [ gnu "4.1.2"; intel "12"; pgi "10.9" ];
      stacks =
        (let compilers = [ intel "12"; gnu "4.1.2"; pgi "10.9" ] in
         List.map (stack Impl.Open_mpi "1.4") compilers
         @ List.map (stack Impl.Mvapich2 "1.7a") compilers
         @ List.map (stack Impl.Mpich2 "1.3") compilers);
      modules_flavor = Site.Environment_modules;
      tools = Tools.full;
      batch = Batch.make ~queues:[ queue "debug" 5.0; queue "batch" 240.0 ];
    };
  ]

(* Build and provision one site in [world]. *)
let build_site ~world (params : Params.t) spec =
  let site =
    Site.make ~world ~description:spec.site_description ~tools:spec.tools
      ~modules_flavor:spec.modules_flavor ~compilers:spec.compilers
      ~seed:(Prng.hash_key params.Params.seed ("site/" ^ spec.site_name))
      ~fault_model:params.Params.exec
      ~machine:Feam_elf.Types.X86_64 ~distro:spec.distro ~glibc:(v spec.glibc)
      ~interconnect:spec.interconnect ~batch:spec.batch spec.site_name
  in
  let stacks =
    List.map
      (fun st -> (st, draw_health params ~site_name:spec.site_name st))
      spec.stacks
  in
  let _installs = Provision.provision_site site ~stacks in
  site

(* Build an arbitrary spec list as one fresh world: everything later
   compiled in it is byte-reproducible regardless of what the process
   built before. *)
let build_specs params specs_to_build =
  let world = Build_world.create () in
  List.map (build_site ~world params) specs_to_build

let build_all params = build_specs params specs

let find_by_name sites name = List.find (fun s -> Site.name s = name) sites
