(** Batch-system model: queue characteristics.  Queue waits are what the
    simulated clock charges per probe run. *)

type queue = {
  queue_name : string;
  wait_seconds : float;  (** queue wait charged per submitted job *)
}

type t = { queues : queue list  (** first entry is the default/debug queue *) }

(** @raise Invalid_argument when [queues] is empty. *)
val make : queues:queue list -> t

val debug_queue : t -> queue
val queue_by_name : t -> string -> queue option
