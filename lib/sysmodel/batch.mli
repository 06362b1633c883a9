(** Batch-system model: queue characteristics and submission-script
    templates.  The submission format is "the only information about a
    new site our methods require the user to determine" (paper §V); FEAM
    runs its probes through these scripts, and queue waits are what the
    simulated clock charges per probe run. *)

type system = Pbs | Sge | Slurm

type queue = {
  queue_name : string;
  wait_seconds : float;  (** queue wait charged per submitted job *)
}

type t = {
  system : system;
  queues : queue list;  (** first entry is the default/debug queue *)
  serial_template : string;
  parallel_template : string;
}

(** @raise Invalid_argument when [queues] is empty. *)
val make :
  ?serial_template:string ->
  ?parallel_template:string ->
  queues:queue list ->
  system ->
  t

val debug_queue : t -> queue
val queue_by_name : t -> string -> queue option

(** Expand a submission template ([%queue%], [%launcher%], [%np%],
    [%nodes%], [%command%]). *)
val render_script :
  string -> queue:queue -> launcher:string -> np:int -> command:string -> string
