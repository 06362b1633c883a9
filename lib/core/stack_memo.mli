(** The MPI-stack determinant's memo (paper §III.B, §V.C; DESIGN §17):
    one probe outcome per distinct input within one evaluation pass.

    A pass ({!Feam_evalharness.Migrate.run_all}, a drift prediction or
    re-evaluation pass, the matrix journals) creates one memo and hands
    it down to {!Tec.evaluate}; there is no global instance.  A hit
    replays, in order, everything the miss did beyond its result that
    outlives the determinant: the flight-recorder records, the
    [edc.probe_*] and [resolve.*] counters, the build-ID serial and the
    simulated-clock charges.  Files are not among them: the determinant
    runs in its own file-system scope ({!Tec.select_stack}), so neither
    a miss nor a hit leaves any.  Lookups count as [tec.stack_memo.hit]
    / [tec.stack_memo.miss].

    Sound only while the target's staging area ([/tmp/feam]) is empty
    when the determinant starts and sites change nowhere else within the
    pass — true of every pass that creates a memo. *)

(** The determinant's result: the first functioning candidate with its
    install, and each failed candidate's slug and reason. *)
type selection =
  (Discovery.discovered_stack * Feam_sysmodel.Stack_install.t) option
  * (string * string) list

type t

val create : unit -> t

(** [find_or_probe t ?clock ~config site env ~bundle ~target_glibc
    ~candidates probe] is [probe ~clock] on a miss, run under recorders
    and charged to [clock] afterwards, and the recorded outcome replayed
    on a hit.  The key is whether the flight recorder is on, the site's
    name, [env], [config], [target_glibc], the candidates' slugs in
    order and, for a bundle, its origin site, its probes' names, stacks
    and sizes, and its copies' requests, content keys and sizes. *)
val find_or_probe :
  t ->
  ?clock:Feam_util.Sim_clock.t ->
  config:Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  bundle:Bundle.t option ->
  target_glibc:Feam_util.Version.t option ->
  candidates:Discovery.discovered_stack list ->
  (clock:Feam_util.Sim_clock.t -> selection) ->
  selection
