(** The caches of an evaluation (DESIGN §17), passed down as a value:
    there is no global instance.

    A pass is one world state: {!Feam_evalharness.Migrate.run_all},
    Audit's build, the depot statistics.  A drift run and a serve
    engine each keep one context for their lifetime: their sites change
    in place, and the pass memo keeps every entry under its site's
    state, so an entry serves every epoch or request that finds its
    site in the state it was made in.

    Every cache is invisible in the results: a pass under any context
    gives the verdicts, journals, world build serials, clock charges and
    counters of the same pass under {!reference}, except the counters
    that count real work ({!Feam_obs.Metrics.counts_work}): a memo hit
    replays its miss's effect tape ({!Pass_memo.replay}), which takes
    every other counter.  A cache that is [None] computes every time; a
    [None] describe memo reads {!Bdc}'s default memo, which only the
    benchmark harness installs. *)

(** The describe memo: {!Bdc.describe}'s successful objdump
    descriptions, each on the {!Pass_memo.tape} of its miss, by what
    the objdump path reads: the site's [objdump] and [readelf] flags
    ({!Feam_sysmodel.Tools.t}) and the content key of the image.  The
    same image described many times, at its home and staged at every
    target whose tools agree, is parsed once.  A hit replays the tape,
    so a pass charges its clocks in scope as one with no memo would.  The
    objdump work journals nothing, so a tape holds no record and the
    key needs no recorder flag.  Hit/miss counts surface as
    [bdc.describe_cache.hit] / [.miss].  Fallback-path (file/ldd)
    results are never cached, so a hit journals its method as
    [objdump], as the miss did.  Only {!Bdc} reads and writes it. *)
type describe_memo =
  (bool * bool * Feam_util.Chash.t, Description.t Pass_memo.tape) Hashtbl.t

type t = {
  describe : describe_memo option;
      (** BDC descriptions, keyed by site and image content *)
  memo : Pass_memo.t option;
      (** the MPI-stack, source-phase and discovery memo *)
  closures : Feam_dynlinker.Resolve.memo option;
      (** the closure memo under ldd, the probes and ground-truth runs
          (DESIGN §21) *)
  templates : Feam_toolchain.Compile.templates option;
      (** the probe compiles' templates ({!Feam_toolchain.Compile}):
          a hit returns the probe's one image handle, whose bytes a
          miss would build *)
}

(** A fresh context: a fresh pass memo, closure memo and template table
    over [describe] (default: a fresh describe memo). *)
val create : ?describe:describe_memo -> unit -> t

(** An empty describe memo. *)
val create_describe_memo : unit -> describe_memo

(** The context with no cache, against which every other is checked.
    A context with some caches off starts from it. *)
val reference : t

(** The closure memo of an optional context, if any. *)
val closures : t option -> Feam_dynlinker.Resolve.memo option

(** The template table of an optional context, if any. *)
val templates : t option -> Feam_toolchain.Compile.templates option
