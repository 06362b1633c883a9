(* Batch-system model: queue characteristics.  Queue waits are what the
   simulated clock charges for each probe run. *)

type queue = {
  queue_name : string;
  (* Seconds of queue wait charged per submitted job. *)
  wait_seconds : float;
}

type t = {
  queues : queue list;       (* first entry is the default/debug queue *)
}

let make ~queues =
  if queues = [] then invalid_arg "Batch.make: need at least one queue";
  { queues }

let debug_queue t = List.hd t.queues

let queue_by_name t name =
  List.find_opt (fun q -> q.queue_name = name) t.queues
