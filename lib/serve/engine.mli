(** The resident fleet engine: one world (sites, binaries, verdict
    table) plus an evidence store, kept warm across requests.
    Transport-free — the daemon and the tests drive it directly.

    Contract (DESIGN §14): [predict] answers from the resident verdict
    table; mutating verbs recapture only the touched owners, diff the
    fresh atoms against the store, map the changed paths through the
    shared determinant<-evidence dependency map
    ([Feam_core.Evidence]), and re-evaluate only the cells those
    changes reach.  All responses are byte-deterministic for a given
    store state. *)

type t

(** Build a resident world and evaluate its baseline verdict table.
    [specs]/[benchmarks] default to the drift harness's reduced
    two-site world; the CLI passes the full Table II fleet under
    [--full].  [clock] feeds only the [serve.query_ns] histogram and
    defaults to the fixed zero clock, keeping tests deterministic.
    The engine holds one {!Feam_core.Eval_ctx} for its lifetime: its
    describe memo stays warm across requests, each re-evaluation pass
    gets a fresh stack memo. *)
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

(** Mutation count: 0 at baseline, +1 per accepted state change. *)
val epoch : t -> int

(** Serve one parsed request; returns the rendered response line
    (no trailing newline).  [write_file] receives the epoch document
    when a [snapshot] request names an [out] path; the default writes
    to the filesystem. *)
val handle :
  ?write_file:(string -> string -> unit) -> t -> Protocol.request -> string

(** The resident fleet as a drift epoch snapshot. *)
val snapshot : t -> Feam_drift.Snapshot.t

(** Byte-identity of the resident verdict table against a cold full
    prediction pass over the same fleet. *)
val crosscheck_matches : t -> bool
