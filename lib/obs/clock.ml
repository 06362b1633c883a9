(* Time sources for the observability layer.

   Spans measure durations through an injectable clock so that
   deterministic tests (and the simulated evaluation) stay reproducible:
   the default source is a fixed clock that always reads zero, the CLI
   installs the wall clock and tests drive a manual clock by hand. *)

type t = unit -> int64 (* nanoseconds *)

let fixed ?(at = 0L) () : t = fun () -> at

(* Wall clock.  gettimeofday is not strictly monotonic, but the
   pipeline never sleeps and the exporters only subtract nearby
   readings; good enough without a C stub for a monotonic source. *)
let wall : t = fun () -> Int64.of_float (Unix.gettimeofday () *. 1e9)

(* A hand-driven clock for deterministic span tests. *)
type manual = { mutable now_ns : int64 }

let manual () = { now_ns = 0L }

let of_manual m : t = fun () -> m.now_ns

let advance m ns =
  if Int64.compare ns 0L < 0 then invalid_arg "Clock.advance: negative step";
  m.now_ns <- Int64.add m.now_ns ns
