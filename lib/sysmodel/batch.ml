(* Batch-system model: queue characteristics and the user-supplied
   submission scripts.  The submission format is "the only information
   about a new site our methods require the user to determine" (paper
   §V); FEAM runs its probes through these scripts, and queue waits are
   what the simulated clock charges for each probe run. *)

type system = Pbs | Sge | Slurm

type queue = {
  queue_name : string;
  (* Seconds of queue wait charged per submitted job. *)
  wait_seconds : float;
}

type t = {
  system : system;
  queues : queue list;       (* first entry is the default/debug queue *)
  serial_template : string;  (* submission script template, serial jobs *)
  parallel_template : string;(* submission script template, MPI jobs *)
}

let default_templates system =
  match system with
  | Pbs ->
    ( "#!/bin/sh\n#PBS -q %queue%\n#PBS -l nodes=1\n%command%\n",
      "#!/bin/sh\n#PBS -q %queue%\n#PBS -l nodes=%nodes%\n%launcher% -n %np% %command%\n" )
  | Sge ->
    ( "#!/bin/sh\n#$ -q %queue%\n%command%\n",
      "#!/bin/sh\n#$ -q %queue%\n#$ -pe mpi %np%\n%launcher% -n %np% %command%\n" )
  | Slurm ->
    ( "#!/bin/sh\n#SBATCH -p %queue%\n%command%\n",
      "#!/bin/sh\n#SBATCH -p %queue%\n#SBATCH -n %np%\nsrun %command%\n" )

let make ?serial_template ?parallel_template ~queues system =
  if queues = [] then invalid_arg "Batch.make: need at least one queue";
  let default_serial, default_parallel = default_templates system in
  {
    system;
    queues;
    serial_template = Option.value serial_template ~default:default_serial;
    parallel_template = Option.value parallel_template ~default:default_parallel;
  }

let debug_queue t = List.hd t.queues

let queue_by_name t name =
  List.find_opt (fun q -> q.queue_name = name) t.queues

(* Expand a submission template. *)
let render_script template ~queue ~launcher ~np ~command =
  let substitutions =
    [
      ("%queue%", queue.queue_name);
      ("%launcher%", launcher);
      ("%np%", string_of_int np);
      ("%nodes%", string_of_int (max 1 (np / 8)));
      ("%command%", command);
    ]
  in
  List.fold_left
    (fun acc (key, value) ->
      (* simple textual substitution; keys never overlap *)
      let parts = Str_split.split_on_string ~sep:key acc in
      String.concat value parts)
    template substitutions
