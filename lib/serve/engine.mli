(** The resident fleet engine: drift's resident world
    ({!Feam_evalharness.Driftrun.World}: sites, binaries, each owner's
    last capture, verdict table), kept warm across requests.
    Transport-free — the daemon and the tests drive it directly.

    Contract (DESIGN §14): [predict] answers from the resident verdict
    table; [update-evidence] recaptures only the touched site and the
    binaries homed there, diffs them against their resident captures,
    maps the changed paths through the shared determinant<-evidence
    dependency map ([Feam_core.Evidence]), and re-evaluates only the
    cells those changes reach — drift's epoch step, between requests.
    All responses are byte-deterministic for a given request sequence. *)

type t

(** Build a resident world and evaluate its baseline verdict table.
    [specs]/[benchmarks] default to the drift harness's reduced
    two-site world; the CLI passes the full Table II fleet under
    [--full].  [clock] feeds only the [serve.query_ns] histogram and
    defaults to the fixed zero clock, keeping tests deterministic.
    The engine keeps one evaluation context ({!Feam_core.Eval_ctx}) for
    its lifetime, warm across requests: the baseline, every update's
    recapture and re-evaluation and every registration's capture and
    new cells share its describe memo and pass memo.  A
    pass-memo entry is kept under its site's state, so an update reruns
    the source phase only for binaries homed at the site it changed,
    none when it puts the site back into a state seen since its last
    file change, and keeps every probe outcome whose key still
    matches.
    Only a crosscheck captures and evaluates cold, under a fresh
    context: it is the oracle. *)
val create :
  ?specs:Feam_evalharness.Sites.spec list ->
  ?benchmarks:Feam_suites.Benchmark.t list ->
  ?clock:Feam_obs.Clock.t ->
  seed:int ->
  unit ->
  t

(** A no-op: the engine's caches live in the engine and go with it.
    Kept because perfbench calls it. *)
val close : t -> unit

val resident_cells : t -> int

(** The resident sites, in registration order. *)
val sites : t -> Feam_sysmodel.Site.t list

(** Serve one parsed request; returns the rendered response line
    (no trailing newline).  [write_file] receives the epoch document
    when a [snapshot] request names an [out] path; the default writes
    to the filesystem. *)
val handle :
  ?write_file:(string -> string -> unit) -> t -> Protocol.request -> string

(** The resident fleet as a drift epoch snapshot, assembled from the
    resident captures without recapturing. *)
val snapshot : t -> Feam_drift.Snapshot.t
