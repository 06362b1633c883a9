(** The effect tape (DESIGN §17): everything a computation did that
    outlives it, in program order, so that a memo hit can redo it and
    leave the world exactly as a rerun would.

    There is one capture stack, of tapes ({!capture}), simulated clocks
    ({!with_clock}) and journals ({!with_journal}) in scope.  Each
    channel notes its own events, and only while a capture is open:
    - {!Feam_obs.Metrics.incr} notes a [Count], for every counter except
      those that count real work ({!Feam_obs.Metrics.counts_work}),
      the profiler's [*.calls] and [flightrec.records], which a
      replayed record moves by itself;
    - {!Feam_flightrec.Recorder.record} notes a [Record] while a journal
      is in scope;
    - {!Feam_sysmodel.Cost.charge} notes a [Charge].

    One rule routes them: a [Count] reaches the tapes, a [Record] the
    tapes and the innermost journal, a [Charge] the tapes and every
    clock.  The replay lives above every channel, in
    {!Feam_core.Pass_memo}: a hit notes the miss's events again, to the
    captures in scope at the hit. *)

type event =
  | Count of string * (string * string) list * int
      (** a counter's name, labels and increment *)
  | Record of string * (string * Json.t) list
      (** a journal record's type and caller fields *)
  | Charge of float  (** seconds charged to the simulated clock *)

(** A journal as its owner ({!Feam_flightrec.Recorder}) keeps it:
    [take] appends a record's type and fields, [flush] emits it. *)
type journal = { take : string -> (string * Json.t) list -> unit; flush : unit -> unit }

(** Whether a tape or a clock is open.  Allocates nothing: channels
    test it before they build an event. *)
val capturing : unit -> bool

(** Hand an event to the open captures by the rule above. *)
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

(** [with_journal j f] runs [f] with [j] the innermost journal.  The
    scope closes when [f] returns or raises; emitting [j] is its
    owner's business. *)
val with_journal : journal -> (unit -> 'a) -> 'a

(** The innermost journal in scope, if any. *)
val journal : unit -> journal option

(** Whether a journal is in scope.  Allocates nothing. *)
val journaling : unit -> bool
