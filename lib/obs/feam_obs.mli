(** Structured tracing, metrics and profiling for the FEAM pipeline:
    hierarchical spans, a counters-gauges-histograms registry, the cost
    ledger and pluggable exporters.  Everything is a no-op until a trace
    is configured, so the instrumented pipeline stays deterministic by
    default. *)

module Clock = Clock
module Span = Span
module Sink = Sink
module Trace = Trace
module Metrics = Metrics
module Prof = Prof
module Expo = Expo
module Cachestat = Cachestat
module Ledger = Ledger
module Benchtrend = Benchtrend

type trace_format = Pretty | Jsonl | Chrome

(** The [--trace] vocabulary: [pretty], [jsonl], [chrome]. *)
val trace_formats : (string * trace_format) list

(** [trace_to ?file format] turns tracing on over the wall clock.  The
    rendered trace goes to [file] (unless it is ["-"]), else to the
    terminal: the pretty tree to stderr, the machine formats to
    stdout. *)
val trace_to : ?file:string -> trace_format -> unit

(** Flush the trace sink: idempotent, so an exit path may call it
    again.  A journal in scope drains through
    {!Feam_flightrec.Recorder.flush}, which every exit path calls beside
    this one. *)
val flush : unit -> unit

(** Back to the pristine no-op state: tracing off, registry empty,
    timers off, no ledger. *)
val reset : unit -> unit

(** [with_sim_phase ~name ~metric ~phase sim f] runs [f] under a span
    named [name] with [sim] in scope ({!Feam_util.Effects.with_clock}),
    recording the simulated seconds it charges as the span's [sim_s]
    attribute and as a sample of the [metric{phase}] histogram. *)
val with_sim_phase :
  name:string ->
  metric:string ->
  phase:string ->
  Feam_util.Sim_clock.t ->
  (unit -> 'a) ->
  'a
