(* The effect tape (DESIGN §17).  A memo hit must leave the world as a
   rerun would, so a miss runs under {!capture}, which keeps every
   effect the computation had that outlives it, and a hit redoes them
   in order.  Each channel notes its own events, and only while a
   capture runs: counters (Feam_obs.Metrics.incr), journal records
   (Feam_flightrec.Recorder.record) and clock charges
   (Feam_sysmodel.Cost.charge). *)

type event =
  | Count of string * (string * string) list * int
  | Record of string * (string * Json.t) list
  | Charge of float

(* One running capture's events, newest first. *)
type capture = { mutable events : event list }

(* The running captures, innermost first.  An event reaches every one,
   so an inner capture's events are also the outer's. *)
let captures : capture list ref = ref []

let capturing () = match !captures with [] -> false | _ :: _ -> true

let rec note_all event = function
  | [] -> ()
  | c :: outer ->
    c.events <- event :: c.events;
    note_all event outer

let note event = note_all event !captures

let capture f =
  let c = { events = [] } in
  let outer = !captures in
  captures := c :: outer;
  Fun.protect ~finally:(fun () -> captures := outer) @@ fun () ->
  let r = f () in
  (r, List.rev c.events)
