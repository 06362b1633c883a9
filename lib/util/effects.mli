(** The effect tape (DESIGN §17): everything a computation did that
    outlives it, in program order, so that a memo hit can redo it and
    leave the world exactly as a rerun would.

    There is one capture stack, of tapes ({!capture}) and of simulated
    clocks in scope ({!with_clock}).  Each channel notes its own
    events, and only while a capture is open:
    - {!Feam_obs.Metrics.incr} notes a [Count], for every counter except
      those that count real work ({!Feam_obs.Metrics.counts_work}),
      the profiler's [*.calls] and [flightrec.records], which a
      replayed record moves by itself;
    - {!Feam_flightrec.Recorder.record} notes a [Record] while the
      recorder is on;
    - {!Feam_sysmodel.Cost.charge} notes a [Charge]: each clock in
      scope adds its seconds, and a memo hit charges the clocks in
      scope at the hit what the miss charged.

    The replay lives above every channel, in {!Feam_core.Pass_memo}. *)

type event =
  | Count of string * (string * string) list * int
      (** a counter's name, labels and increment *)
  | Record of string * (string * Json.t) list
      (** a journal record's type and caller fields *)
  | Charge of float  (** seconds charged to the simulated clock *)

(** Whether a tape or a clock is open.  Allocates nothing: channels
    test it before they build an event. *)
val capturing : unit -> bool

(** Hand an event to every open capture: a tape keeps it, a clock
    takes a [Charge]'s seconds ({!Sim_clock.charge}). *)
val note : event -> unit

(** [capture f] runs [f] and returns, with its result, every event
    noted meanwhile, oldest first.  Captures nest: an event noted inside
    an inner capture, a replayed one included, is also every enclosing
    capture's.  When [f] raises, its events stay with the enclosing
    captures, since they happened. *)
val capture : (unit -> 'a) -> 'a * event list

(** [with_clock clock f] runs [f] with [clock] in scope, innermost:
    each charge noted meanwhile adds to it and to every enclosing
    clock.  The scope closes when [f] returns or raises. *)
val with_clock : Sim_clock.t -> (unit -> 'a) -> 'a

(** The innermost clock in scope, if any. *)
val clock : unit -> Sim_clock.t option
