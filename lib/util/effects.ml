(* The effect tape (DESIGN §17).  A memo hit must leave the world as a
   rerun would, so a miss runs under {!capture}, which keeps every
   effect the computation had that outlives it, and a hit redoes them
   in order.  Each channel notes its own events, and only while a
   capture is open: counters (Feam_obs.Metrics.incr), journal records
   (Feam_flightrec.Recorder.record) and clock charges
   (Feam_sysmodel.Cost.charge).  A clock in scope ({!with_clock}) is a
   capture that sums the charges. *)

type event =
  | Count of string * (string * string) list * int
  | Record of string * (string * Json.t) list
  | Charge of float

(* A tape keeps its events, newest first; a clock sums its charges. *)
type tape = { mutable events : event list }
type capture = Tape of tape | Clock of Sim_clock.t

(* The open captures, innermost first.  An event reaches every one, so
   an inner tape's events are also the outer's, and a charge reaches
   every clock in scope. *)
let captures : capture list ref = ref []

let capturing () = match !captures with [] -> false | _ :: _ -> true

let rec note_all event = function
  | [] -> ()
  | Tape t :: outer ->
    t.events <- event :: t.events;
    note_all event outer
  | Clock clock :: outer ->
    (match event with Charge s -> Sim_clock.charge clock s | _ -> ());
    note_all event outer

let note event = note_all event !captures

(* Run [f] with [c] innermost, and close it also when [f] raises. *)
let within c f =
  let outer = !captures in
  captures := c :: outer;
  Fun.protect ~finally:(fun () -> captures := outer) f

let capture f =
  let t = { events = [] } in
  let r = within (Tape t) f in
  (r, List.rev t.events)

let with_clock clock f = within (Clock clock) f

let clock () =
  List.find_map (function Clock c -> Some c | Tape _ -> None) !captures
