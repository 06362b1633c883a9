(** Process-global metrics registry: counters, gauges and histograms,
    each addressed by a name plus optional labels
    (e.g. [predict.outcome{result=ready}]).  Recording is always on: it
    is cheap and changes no output. *)

type hist = {
  bounds : float array;  (** ascending inclusive upper bucket bounds *)
  counts : int array;  (** length [bounds + 1]; the last is overflow *)
  mutable sum : float;
  mutable count : int;
}

type metric = Counter of int ref | Gauge of float ref | Histogram of hist

type entry = { name : string; labels : (string * string) list; metric : metric }

(** Add to a counter.  While a {!Feam_util.Effects.capture} runs, the
    increment is also noted as a [Count], unless the counter counts
    real work ({!counts_work}), is the profiler's [*.calls] or is
    [flightrec.records]. *)
val incr : ?by:int -> ?labels:(string * string) list -> string -> unit

(** Whether a counter counts real work: the cache families ([*.hit],
    [*.miss], [*.saved_bytes]) and [bdc.describe], which only a
    describe-memo miss moves.  A memo hit leaves them alone; every other
    counter reads the same with or without a cache. *)
val counts_work : string -> bool

val set_gauge : ?labels:(string * string) list -> string -> float -> unit

(** Add a sample.  The default bounds are log-linear in nanoseconds:
    each power of two from 2{^10} to 2{^34} split into four buckets.
    [bounds] only takes effect when the histogram is first created. *)
val observe :
  ?labels:(string * string) list -> ?bounds:float array -> string -> float -> unit

val counter_value : ?labels:(string * string) list -> string -> int option
val histogram_value : ?labels:(string * string) list -> string -> hist option
val hist_mean : hist -> float
val reset : unit -> unit

(** Entries in stable (key-sorted) order. *)
val snapshot : unit -> (string * entry) list

val kind_to_string : metric -> string
val render_text : unit -> string
val metric_to_json : metric -> Feam_util.Json.t
val to_json : unit -> Feam_util.Json.t
