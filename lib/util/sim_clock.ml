(* Simulated wall-clock accounting.  Site operations (tool invocations,
   compiles, batch-queue waits, probe runs) charge seconds to a clock so
   that the evaluation can report how long FEAM phases take (paper §VI.C:
   both phases always completed in under five minutes). *)

type t = { mutable elapsed : float }

let create () = { elapsed = 0.0 }

let charge t seconds =
  if seconds < 0.0 then invalid_arg "Sim_clock.charge: negative duration";
  t.elapsed <- t.elapsed +. seconds

let elapsed t = t.elapsed

(* Render "3m42s" style durations. *)
let to_string t =
  let s = t.elapsed in
  let minutes = int_of_float (s /. 60.0) in
  let rest = s -. (float_of_int minutes *. 60.0) in
  if minutes > 0 then Printf.sprintf "%dm%02.0fs" minutes rest
  else Printf.sprintf "%.1fs" rest
