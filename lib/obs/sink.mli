(** Pluggable span consumers.  A sink receives every completed span
    (children before their parents) and renders its output at [flush],
    handing it to [emit]; flushing is idempotent. *)

type t = { on_span : Span.t -> unit; flush : unit -> unit }

val noop : t

(** One JSON object per line, in completion order. *)
val jsonl : emit:(string -> unit) -> unit -> t

(** A human-readable tree, one line per span in start order. *)
val pretty : emit:(string -> unit) -> unit -> t

(** Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev). *)
val chrome : emit:(string -> unit) -> unit -> t
