(** The daemon's transport layer: a signal-aware request loop over any
    line source/sink, with stdio, unix-socket and TCP bindings.

    SIGINT/SIGTERM drain rather than kill: the in-flight request
    completes and its response is written, then the loop exits and
    drains the trace sink ([Feam_obs.flush]) and the journal in scope
    ([Feam_flightrec.Recorder.flush]), both idempotent, so neither is
    ever truncated. *)

type outcome = {
  served : int;  (** requests answered (including error responses) *)
  parse_errors : int;
  shutdown : bool;  (** a shutdown verb was served *)
  interrupted : bool;  (** the stop flag ended the loop *)
}

(** True once a signal asked the loop to drain. *)
val stop_requested : unit -> bool

(** Run [f] with SIGINT/SIGTERM bound to a drain request, restoring the
    previous handlers afterwards.  Resets the stop flag on entry. *)
val with_signals : (unit -> 'a) -> 'a

(** The transport-free loop: read lines from [next] until it returns
    [None], a shutdown verb is served, or the stop flag is raised;
    write one response line (newline included) per request via [write].
    Journals each exchange through the flight recorder when enabled,
    and flushes every buffered sink on exit.  [on_request] runs after a
    line is read, before it is handled — the kill-mid-request tests
    hook it.  Expects signal handlers to be installed by the caller
    ({!with_signals}); the [run_*] bindings below do both. *)
val serve_lines :
  ?on_request:(string -> unit) ->
  Engine.t ->
  next:(unit -> string option) ->
  write:(string -> unit) ->
  outcome

(** Serve stdin/stdout — the deterministic transport CI replays. *)
val run_stdio : Engine.t -> outcome

(** Serve a unix domain socket at [path], one client at a time.
    Removes a stale socket file first and unlinks it on exit. *)
val run_unix_socket : Engine.t -> string -> outcome

(** Serve TCP on loopback. *)
val run_tcp : Engine.t -> int -> outcome
