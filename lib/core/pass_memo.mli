(** The evaluation memo (DESIGN §17): one MPI-stack probe outcome
    (paper §III.B, §V.C), one source-phase bundle (paper §V) and one
    environment discovery (paper §V.B) per distinct input and site
    state.

    A pass ({!Feam_evalharness.Migrate.run_all}, the matrix journals)
    creates one memo, inside its {!Eval_ctx}, and hands it down to
    {!Tec.evaluate}, {!Phases.source_phase} and {!Edc.discover}; a drift
    run and a serve engine keep one for their lifetime.  There is no
    global instance.

    Every table stores one {!tape} per entry: the result plus every
    effect of the miss that outlives it, in program order.  The miss
    runs under one {!Feam_util.Effects.capture}, so its effects,
    charges to the clocks in scope included, happen live; a hit
    replays the tape, and a miss that raises keeps no entry.  Files are
    not among the effects: the determinant runs in its own file-system
    scope ({!Tec.select_stack}), and the source phase and discovery
    write nothing.  Captures nest: a
    discovery missed inside a source-phase miss lands on both tapes,
    and a discovery hit there replays onto the source phase's.

    Entries are kept per site state: its file system's generation
    ({!Feam_sysmodel.Vfs.generation}) and its setter fields (the
    loader-cache flag, ld.so.conf directories, stack installs) compared
    by value, so an entry serves whenever its site is in the state it
    was made in, also after leaving it and coming back.  The memo holds
    one file-system generation and at most two setter states, one per
    cache flag, per site.  To catch a memo carried into a rebuilt
    world, every lookup also checks that its site is physically the one
    its name stood for in earlier lookups. *)

(** The determinant's result: the first functioning candidate with its
    install, and each failed candidate's slug and reason. *)
type selection =
  (Discovery.discovered_stack * Feam_sysmodel.Stack_install.t) option
  * (string * string) list

(** A computation's result and its effects, oldest first.  The
    describe memo ({!Eval_ctx.describe_memo}) keeps the same tape. *)
type 'a tape = { value : 'a; effects : Feam_util.Effects.event list }

(** [record f] runs [f] under an effect capture. *)
val record : (unit -> 'a) -> 'a tape

(** Redo a tape's effects in order and return its value: each [Count]
    through {!Feam_obs.Metrics.incr}, each [Record] through
    {!Feam_flightrec.Recorder.record} (a fresh sequence number and the
    current span) and each [Charge] to the clocks in scope through
    {!Feam_sysmodel.Cost.charge}.
    Inside a running capture the replayed effects are that capture's
    too. *)
val replay : 'a tape -> 'a

type t

val create : unit -> t

(** [find_or_probe t ~config site env ~bundle ~target_glibc
    ~candidates probe] is [probe ()] on a miss, recorded, and the
    recorded outcome on a hit, its tape replayed, so a hit charges
    the clocks in scope what the miss charged.  The key
    is the site's state, whether the flight recorder is on, [env],
    [config], [target_glibc], the candidates' slugs
    in order and, for a bundle, its origin site, its probes' names,
    stacks and sizes, and its copies' requests, content keys and sizes.
    Lookups count as [tec.stack_memo.hit] / [tec.stack_memo.miss].

    @raise Invalid_argument when an earlier lookup named another site
    value with [site]'s name. *)
val find_or_probe :
  t ->
  config:Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  bundle:Bundle.t option ->
  target_glibc:Feam_util.Version.t option ->
  candidates:Discovery.discovered_stack list ->
  (unit -> selection) ->
  selection

(** [find_or_source t ~config site env ~binary_path ~image
    source] is [source ()] on a miss and the recorded bundle (or
    error) on a hit, as for {!find_or_probe}.  [image] is the handle and
    declared size of the ELF image at [binary_path], if any.  The
    key is the site's state, whether the flight recorder is on, [env],
    [config], [binary_path] and the image's content
    key and declared size.  Lookups count as [phases.source_memo.hit] /
    [phases.source_memo.miss].

    @raise Invalid_argument as {!find_or_probe}. *)
val find_or_source :
  t ->
  config:Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  binary_path:string ->
  image:(Feam_elf.Reader.image * int) option ->
  (unit -> (Bundle.t, string) result) ->
  (Bundle.t, string) result

(** [find_or_discover t site env ~env_type discover] is
    [discover ()] on a miss and the recorded discovery on a hit, as for
    {!find_or_probe}: a hit replays the discovery's [edc] evidence
    records, its [edc.discoveries] counter and its tool, module and
    locate charges.  The key is the site's state, whether the flight
    recorder is on, [env_type] and [env]'s bindings.  Writes in an open
    file-system scope do not move the site's state, so a caller must
    not look up a discovery that such a write could change
    ({!Edc.discover} runs those live).  Lookups count as
    [edc.discover_memo.hit] / [edc.discover_memo.miss].

    @raise Invalid_argument as {!find_or_probe}. *)
val find_or_discover :
  t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  env_type:[ `Target | `Guaranteed ] ->
  (unit -> Discovery.t) ->
  Discovery.t

(** Each site the memo holds entries for, sorted by name, with their
    file-system generation and their number per setter state. *)
val held : t -> (string * int * int list) list
