(* The effect tape (DESIGN §17).  A memo hit must leave the world as a
   rerun would, so a miss runs under {!capture}, which keeps every
   effect the computation had that outlives it, and a hit redoes them
   in order.  Each channel notes its own events, and only while a
   capture is open: counters (Feam_obs.Metrics.incr), journal records
   (Feam_flightrec.Recorder.record) and clock charges
   (Feam_sysmodel.Cost.charge).  A clock in scope ({!with_clock}) is a
   capture that sums the charges, a journal ({!with_journal}) one that
   takes the records. *)

type event =
  | Count of string * (string * string) list * int
  | Record of string * (string * Json.t) list
  | Charge of float

type tape = { mutable events : event list }
type journal = { take : string -> (string * Json.t) list -> unit; flush : unit -> unit }
type capture = Tape of tape | Clock of Sim_clock.t | Journal of journal

(* The open captures, innermost first.  An event reaches every tape, so
   an inner tape's events are also the outer's; a charge reaches every
   clock; a record reaches the innermost journal alone. *)
let captures : capture list ref = ref []

(* A journal takes no count or charge, so it alone is not capturing. *)
let rec capturing_in = function
  | [] -> false
  | Journal _ :: outer -> capturing_in outer
  | (Tape _ | Clock _) :: _ -> true

let capturing () = capturing_in !captures

(* [journal]: no journal has taken the event yet. *)
let rec note_all event ~journal = function
  | [] -> ()
  | Tape t :: outer ->
    t.events <- event :: t.events;
    note_all event ~journal outer
  | Clock clock :: outer ->
    (match event with Charge s -> Sim_clock.charge clock s | _ -> ());
    note_all event ~journal outer
  | Journal j :: outer -> (
    match event with
    | Record (kind, fields) when journal ->
      j.take kind fields;
      note_all event ~journal:false outer
    | _ -> note_all event ~journal outer)

let note event = note_all event ~journal:true !captures

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
let with_journal j f = within (Journal j) f

let clock () = List.find_map (function Clock c -> Some c | _ -> None) !captures
let journal () = List.find_map (function Journal j -> Some j | _ -> None) !captures

let rec journaling_in = function
  | [] -> false
  | Journal _ :: _ -> true
  | (Tape _ | Clock _) :: outer -> journaling_in outer

let journaling () = journaling_in !captures
