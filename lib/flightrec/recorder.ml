(* The flight recorder: journals a pipeline run as a structured,
   versioned event log.  Every determinant decision, every piece of
   evidence the BDC/EDC consulted, and the final report land here as
   one JSON object per line, linked to the enclosing Feam_obs span.

   A journal is a scope ({!with_journal}) on the effect stack
   (Feam_util.Effects).  Outside every scope the recorder is a strict
   no-op, mirroring the tracer, and every record takes its fields as a
   thunk that runs only inside one.  The journal deliberately carries
   *no timestamps* — two runs over the same inputs must produce
   byte-identical journals, which is what makes `feam replay` a
   regression oracle and `feam diff` free of noise. *)

module Json = Feam_util.Json
module Effects = Feam_util.Effects

(* Bumped when the record shapes change incompatibly; `feam replay`
   refuses journals from the future. *)
let schema_version = 1

(* The records, newest first; [emitted] is [next_seq] at the last
   emission, which keeps emitting idempotent. *)
type journal = {
  mutable next_seq : int;
  mutable records : Json.t list;
  mutable emitted : int;
}

let enabled = Effects.journaling

(* [seq] and the current span id are stamped here. *)
let take j kind fields =
  let span =
    match Feam_obs.Trace.current_span_id () with
    | Some id -> Json.Int id
    | None -> Json.Null
  in
  j.records <-
    Json.Obj (("type", Json.Str kind) :: ("seq", Json.Int j.next_seq) :: ("span", span) :: fields)
    :: j.records;
  j.next_seq <- j.next_seq + 1

(* When [f] raises, the journal is still emitted, and [f]'s exception
   surfaces whatever the emission does. *)
let with_journal ~tool ~emit:write f =
  let j = { next_seq = 1; records = []; emitted = 0 } in
  let emit () =
    if j.next_seq <> j.emitted then begin
      let header = Feam_util.Jsonl.header ~kind:"journal" ~schema:schema_version ~tool in
      let body = Feam_util.Jsonl.render (List.to_seq (header :: List.rev j.records)) in
      j.emitted <- j.next_seq;
      Feam_obs.Metrics.set_gauge "flightrec.journal_bytes"
        (float_of_int (String.length body));
      write body
    end
  in
  match Effects.with_journal { take = take j; flush = emit } f with
  | result -> emit (); result
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try emit () with _ -> ());
    Printexc.raise_with_backtrace e bt

let flush () = Option.iter (fun j -> j.Effects.flush ()) (Effects.journal ())

let no_fields () = []

(* Append one record to the innermost journal.  A running capture keeps
   the type and fields too, so a memo hit can record them again. *)
let record ?(fields = no_fields) kind =
  if enabled () then begin
    Effects.(note (Record (kind, fields ())));
    Feam_obs.Metrics.incr ~labels:[ ("type", kind) ] "flightrec.records"
  end

(* A raw fact consulted during discovery — an objdump/readelf/ldd
   parse, an environment probe, a library location. *)
let evidence ~stage ~kind fields =
  if enabled () then
    record "evidence" ~fields:(fun () ->
      ("stage", Json.Str stage) :: ("kind", Json.Str kind) :: fields ())

(* A determinant verdict plus the evidence that produced it. *)
let decision ~determinant ~verdict evidence =
  if enabled () then
    record "decision" ~fields:(fun () ->
      [
        ("determinant", Json.Str determinant);
        ("verdict", Json.Str verdict);
        ("evidence", Json.Obj (evidence ()));
      ])

(* A full serialized input (description, discovery, config) — what
   replay reconstructs the run from. *)
let payload ~kind data =
  if enabled () then
    record "payload" ~fields:(fun () -> [ ("kind", Json.Str kind); ("data", data ()) ])

(* One request/response exchange served by the resident prediction
   daemon.  Byte sizes rather than bodies: the response log is its own
   replayable artifact; the journal records that the exchange happened
   and whether it was answered cleanly. *)
let serve_request ~verb ~ok ~bytes_in ~bytes_out =
  record "serve.request" ~fields:(fun () ->
      [
        ("verb", Json.Str verb);
        ("ok", Json.Bool ok);
        ("bytes_in", Json.Int bytes_in);
        ("bytes_out", Json.Int bytes_out);
      ])
