(* Feam_obs — structured tracing, metrics and profiling for the FEAM
   pipeline.

   Where `feam lint` (lib/analysis) says what is *wrong* with a bundle,
   this layer says what FEAM *did* and how long it took, mirroring the
   paper's §VI cost evaluation: hierarchical spans over every BDC /
   EDC / prediction / resolution step, a counters-gauges-histograms
   registry, and pluggable exporters (human-readable, JSONL, Chrome
   trace_event).  Everything is a no-op until a trace is configured,
   so the instrumented pipeline stays deterministic by default. *)

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

(* The --trace vocabulary every CLI accepts. *)
let trace_formats = [ ("pretty", Pretty); ("jsonl", Jsonl); ("chrome", Chrome) ]

(* [trace_to ?file format] turns tracing on over the wall clock.  The
   rendered trace goes to [file] (unless it is "-"), else to the
   terminal: the pretty tree to stderr, the machine formats to
   stdout. *)
let trace_to ?file format =
  let emit text =
    match file with
    | Some file when file <> "-" ->
      Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc text)
    | _ -> (
      match format with
      | Pretty -> prerr_string text
      | Jsonl | Chrome -> print_string text)
  in
  let sink =
    match format with
    | Pretty -> Sink.pretty ~emit ()
    | Jsonl -> Sink.jsonl ~emit ()
    | Chrome -> Sink.chrome ~emit ()
  in
  Trace.configure ~clock:Clock.wall sink

(* Drain the trace sink: idempotent, so an exit path may call it
   again.  A journal drains through Feam_flightrec.Recorder.flush. *)
let flush = Trace.flush

(* Back to the pristine no-op state (tests). *)
let reset () =
  Trace.disable ();
  Trace.set_record_alloc false;
  Metrics.reset ();
  Prof.reset ();
  Ledger.uninstall ()

(* Simulated seconds, bucketed against the paper's five-minute phase
   budget (§VI.C). *)
let sim_seconds_bounds = [| 0.1; 1.0; 5.0; 15.0; 60.0; 300.0 |]

(* Run [f] under a span named [name] with [sim] in scope, attributing
   the simulated seconds it charges both as a span attribute and as a
   sample of the [metric]{phase=[phase]} histogram — the shared shape of
   every evaluation-harness phase timer. *)
let with_sim_phase ~name ~metric ~phase sim f =
  Trace.with_span name @@ fun () ->
  let before = Feam_util.Sim_clock.elapsed sim in
  let result = Feam_util.Effects.with_clock sim f in
  let spent = Feam_util.Sim_clock.elapsed sim -. before in
  Trace.set_attr "sim_s" (Span.Float spent);
  Metrics.observe
    ~labels:[ ("phase", phase) ]
    ~bounds:sim_seconds_bounds metric spent;
  result
