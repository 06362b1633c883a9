(* Simulated wall-clock accounting.  Site operations (tool invocations,
   compiles, batch-queue waits, probe runs) charge seconds to a clock so
   that the evaluation can report how long FEAM phases take (paper §VI.C:
   both phases always completed in under five minutes). *)

(* [tape] holds every charge, newest first, on a recording clock, with
   whether a replay redoes it. *)
type t = { mutable elapsed : float; mutable tape : (float * bool) list option }

let create () = { elapsed = 0.0; tape = None }

let recording () = { elapsed = 0.0; tape = Some [] }

let add ~replayed t seconds =
  if seconds < 0.0 then invalid_arg "Sim_clock.charge: negative duration";
  t.elapsed <- t.elapsed +. seconds;
  match t.tape with
  | Some l -> t.tape <- Some ((seconds, replayed) :: l)
  | None -> ()

let charge = add ~replayed:true

let charge_cached = add ~replayed:false

let charges t = List.rev_map fst (Option.value t.tape ~default:[])

let replayed_charges t =
  List.fold_left
    (fun acc (seconds, replayed) -> if replayed then seconds :: acc else acc)
    [] (Option.value t.tape ~default:[])

let elapsed t = t.elapsed

(* Render "3m42s" style durations. *)
let to_string t =
  let s = t.elapsed in
  let minutes = int_of_float (s /. 60.0) in
  let rest = s -. (float_of_int minutes *. 60.0) in
  if minutes > 0 then Printf.sprintf "%dm%02.0fs" minutes rest
  else Printf.sprintf "%.1fs" rest
