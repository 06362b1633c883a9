(** Cache-efficiency telemetry, derived from the counter registry: every
    cache reports [<cache>.hit]/[<cache>.miss] (or [_hits]/[_misses])
    counters with an optional [saved_bytes] sibling, and this module
    discovers the pairs by name. *)

(** Publish a [cache.hit_rate{cache=...}] gauge per discovered cache. *)
val set_gauges : unit -> unit

(** The cache-efficiency table [evaltool --costs] prints. *)
val table : unit -> Feam_util.Table.t
