(* The daemon's transport layer: a signal-aware line loop over any
   (next, write) pair, plus stdio, unix-socket and TCP bindings.

   Graceful shutdown contract: SIGINT/SIGTERM only set a flag.  The
   request in flight completes and its response is written (the drain),
   the loop exits before reading another line, and the trace sink and
   the journal in scope drain, each idempotently — so neither is ever
   truncated mid-record, however the daemon dies. *)

module Recorder = Feam_flightrec.Recorder

let stop_flag = ref false

let stop_requested () = !stop_flag

(* Ask the loop to drain, as the signal handlers do. *)
let request_stop () = stop_flag := true

(* Install the stop-flag handlers for the duration of [f]; restore
   whatever was there before (alcotest's own state, the default
   behaviour) on the way out. *)
let with_signals f =
  stop_flag := false;
  let install sg = Sys.signal sg (Sys.Signal_handle (fun _ -> request_stop ())) in
  let prev_int = install Sys.sigint in
  let prev_term = install Sys.sigterm in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term)
    f

type outcome = {
  served : int;  (** requests answered (including error responses) *)
  parse_errors : int;
  shutdown : bool;  (** a shutdown verb was served *)
  interrupted : bool;  (** the stop flag ended the loop *)
}

let journal_exchange ~verb ~ok ~line ~response =
  Recorder.serve_request ~verb ~ok ~bytes_in:(String.length line)
    ~bytes_out:(String.length response)

(* The loop itself assumes the stop-flag handlers are already in place
   ([with_signals]); tests drive it with hand-rolled transports and a
   mid-request [on_request] hook. *)
let serve_lines ?(on_request = fun (_ : string) -> ()) engine ~next ~write =
  let served = ref 0 and parse_errors = ref 0 and shutdown = ref false in
  let continue = ref true in
  while !continue && not (stop_requested ()) do
    match next () with
    | None -> continue := false
    | Some line ->
      on_request line;
      let verb, ok, response =
        match Protocol.parse line with
        | Error e ->
          incr parse_errors;
          (Protocol.error_code e, false, Protocol.error_response e)
        | Ok req ->
          let response =
            try Engine.handle engine req
            with exn ->
              Feam_util.Json.render
                (Feam_util.Json.Obj
                   [
                     ("ok", Feam_util.Json.Bool false);
                     ("error", Feam_util.Json.Str "internal");
                     ("detail", Feam_util.Json.Str (Printexc.to_string exn));
                   ])
          in
          if req = Protocol.Shutdown then shutdown := true;
          (Protocol.verb_of_request req, true, response)
      in
      journal_exchange ~verb ~ok ~line ~response;
      write (response ^ "\n");
      incr served;
      if !shutdown then continue := false
  done;
  (* The drain: flush every buffered sink exactly once per loop exit —
     idempotent, so the transport wrappers may flush again. *)
  Feam_obs.flush ();
  Recorder.flush ();
  {
    served = !served;
    parse_errors = !parse_errors;
    shutdown = !shutdown;
    interrupted = stop_requested ();
  }

(* -- transports -------------------------------------------------------- *)

let run_stdio engine =
  with_signals @@ fun () ->
  serve_lines engine
    ~next:(fun () -> try Some (input_line stdin) with End_of_file -> None)
    ~write:(fun s ->
      print_string s;
      flush stdout)

let channel_client engine ic oc =
  serve_lines engine
    ~next:(fun () -> try Some (input_line ic) with End_of_file -> None)
    ~write:(fun s ->
      output_string oc s;
      flush oc)

(* Accept clients one at a time; each connection is its own line loop.
   EINTR from a signal falls through to the stop-flag check. *)
let accept_loop engine sock =
  let last = ref None in
  let continue = ref true in
  while !continue && not (stop_requested ()) do
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _ ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let outcome =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> channel_client engine ic oc)
      in
      last := Some outcome;
      if outcome.shutdown then continue := false
  done;
  match !last with
  | Some o -> o
  | None ->
    { served = 0; parse_errors = 0; shutdown = false; interrupted = stop_requested () }

let run_unix_socket engine path =
  with_signals @@ fun () ->
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      accept_loop engine sock)

let run_tcp engine port =
  with_signals @@ fun () ->
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen sock 8;
      accept_loop engine sock)
