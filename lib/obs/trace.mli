(** The tracer: hierarchical spans over an injectable clock, handed to
    the configured sink as they complete.  Disabled (the default), it
    is a strict no-op: {!with_span} runs its thunk directly. *)

(** Opt-in allocation accounting: every completed span then carries
    [alloc_minor_w]/[alloc_major_w] attributes. *)
val set_record_alloc : bool -> unit

(** Turn tracing on with a sink (default clock: {!Clock.fixed}). *)
val configure : ?clock:Clock.t -> Sink.t -> unit

val disable : unit -> unit
val now_ns : unit -> int64

(** Id of the innermost open span, if any: other subsystems (the
    flight recorder) link their records back to the trace. *)
val current_span_id : unit -> int option

(** Attach an attribute to the innermost open span (no-op outside one). *)
val set_attr : string -> Span.value -> unit

(** Record a point-in-time event on the innermost open span. *)
val event : ?attrs:(string * Span.value) list -> string -> unit

(** [with_span name f] runs [f] under a span named [name], then hands
    the span to the sink, also when [f] raises; then [f]'s exception
    surfaces, with its backtrace, whatever the sink does. *)
val with_span : ?attrs:(string * Span.value) list -> string -> (unit -> 'a) -> 'a
val flush : unit -> unit
