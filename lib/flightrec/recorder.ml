(* The flight recorder: journals a pipeline run as a structured,
   versioned event log.  Every determinant decision, every piece of
   evidence the BDC/EDC consulted, and the final report land here as
   one JSON object per line, linked to the enclosing Feam_obs span.

   Disabled (the default) the recorder is a strict no-op, mirroring
   the tracer: instrumentation left in the pipeline changes no output,
   and every record takes its fields as a thunk that runs only while
   recording, so a disabled call builds nothing.  The journal
   deliberately carries *no timestamps* — two runs over the same inputs must produce
   byte-identical journals, which is what makes `feam replay` a
   regression oracle and `feam diff` free of noise. *)

module Json = Feam_util.Json

(* Bumped when the record shapes change incompatibly; `feam replay`
   refuses journals from the future. *)
let schema_version = 1

type state = {
  mutable enabled : bool;
  mutable emit : string -> unit;
  mutable tool : string;
  mutable next_seq : int;
  mutable records : Json.t list; (* reversed *)
  mutable flushed_at : int;      (* record count at the last flush *)
}

let st =
  {
    enabled = false;
    emit = ignore;
    tool = "";
    next_seq = 1;
    records = [];
    flushed_at = -1;
  }

let enabled () = st.enabled

let render () =
  Feam_util.Jsonl.render
    (List.to_seq
       (Feam_util.Jsonl.header ~kind:"journal" ~schema:schema_version
          ~tool:st.tool
       :: List.rev st.records))

(* Idempotent: re-renders the whole journal only when records were
   added since the last flush, so the at_exit safety net after an
   explicit flush writes nothing twice. *)
let flush () =
  if st.enabled && List.length st.records <> st.flushed_at then begin
    let body = render () in
    st.flushed_at <- List.length st.records;
    Feam_obs.Metrics.set_gauge "flightrec.journal_bytes"
      (float_of_int (String.length body));
    st.emit body
  end

(* [configure ~tool ~emit ()] turns journaling on.  [emit] receives
   the complete rendered journal at every {!flush} (callers typically
   truncate-and-write a file), and the recorder registers itself with
   {!Feam_obs.flush} so one call drains trace sink and journal alike. *)
let configure ~tool ~emit () =
  st.enabled <- true;
  st.emit <- emit;
  st.tool <- tool;
  st.next_seq <- 1;
  st.records <- [];
  st.flushed_at <- -1;
  Feam_obs.on_flush ~key:"flightrec" flush

let disable () =
  st.enabled <- false;
  st.emit <- ignore;
  st.tool <- "";
  st.next_seq <- 1;
  st.records <- [];
  st.flushed_at <- -1;
  Feam_obs.remove_flush_hook "flightrec"

let no_fields () = []

(* Append one record.  [seq] and the current span id are stamped here;
   everything else is the caller's fields, built only now.  A running
   effect capture keeps the type and fields, so a memo hit can record
   them again. *)
let record ?(fields = no_fields) kind =
  if st.enabled then begin
    let fields = fields () in
    if Feam_util.Effects.capturing () then
      Feam_util.Effects.(note (Record (kind, fields)));
    let span =
      match Feam_obs.Trace.current_span_id () with
      | Some id -> Json.Int id
      | None -> Json.Null
    in
    let r =
      Json.Obj
        (("type", Json.Str kind)
        :: ("seq", Json.Int st.next_seq)
        :: ("span", span)
        :: fields)
    in
    st.next_seq <- st.next_seq + 1;
    st.records <- r :: st.records;
    Feam_obs.Metrics.incr ~labels:[ ("type", kind) ] "flightrec.records"
  end

(* A raw fact consulted during discovery — an objdump/readelf/ldd
   parse, an environment probe, a library location. *)
let evidence ~stage ~kind fields =
  if st.enabled then
    record "evidence" ~fields:(fun () ->
      ("stage", Json.Str stage) :: ("kind", Json.Str kind) :: fields ())

(* A determinant verdict plus the evidence that produced it. *)
let decision ~determinant ~verdict evidence =
  if st.enabled then
    record "decision" ~fields:(fun () ->
      [
        ("determinant", Json.Str determinant);
        ("verdict", Json.Str verdict);
        ("evidence", Json.Obj (evidence ()));
      ])

(* A full serialized input (description, discovery, config) — what
   replay reconstructs the run from. *)
let payload ~kind data =
  if st.enabled then
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
