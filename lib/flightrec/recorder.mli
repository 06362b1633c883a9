(** The flight recorder: journals a pipeline run as a structured,
    versioned event log — one JSON object per line, no timestamps, so
    identical inputs yield byte-identical journals.

    A strict no-op until {!configure}, mirroring {!Feam_obs.Trace}. *)

(** Current journal schema version (header field [schema]). *)
val schema_version : int

(** [configure ~tool ~emit ()] turns journaling on.  [emit] receives
    the complete rendered journal at every {!flush}; the recorder also
    registers itself as a {!Feam_obs.on_flush} hook so a single
    [Feam_obs.flush ()] drains trace sink and journal alike. *)
val configure : tool:string -> emit:(string -> unit) -> unit -> unit

val enabled : unit -> bool

(** Append one record of the given type.  The sequence number and the
    innermost open {!Feam_obs.Trace} span id are stamped automatically.
    While a {!Feam_util.Effects.capture} runs, the type and fields are
    also noted as a [Record].

    Every function below that journals takes its fields (or data) as a
    thunk, run only while the recorder is on: a disabled call builds
    nothing. *)
val record : ?fields:(unit -> (string * Feam_util.Json.t) list) -> string -> unit

(** A raw fact consulted during discovery (objdump parse, ldd walk,
    environment probe, library location). *)
val evidence :
  stage:string -> kind:string -> (unit -> (string * Feam_util.Json.t) list) -> unit

(** A determinant verdict plus the evidence object that produced it. *)
val decision :
  determinant:string ->
  verdict:string ->
  (unit -> (string * Feam_util.Json.t) list) ->
  unit

(** A full serialized input (description, discovery, config) — the
    material replay reconstructs the run from. *)
val payload : kind:string -> (unit -> Feam_util.Json.t) -> unit

(** One request/response exchange served by the resident prediction
    daemon ([serve.request] record): verb, outcome, and wire sizes. *)
val serve_request :
  verb:string -> ok:bool -> bytes_in:int -> bytes_out:int -> unit

(** Render and hand the journal to [emit].  Idempotent: does nothing
    when no records were added since the last flush. *)
val flush : unit -> unit

(** Back to the pristine no-op state; unregisters the flush hook. *)
val disable : unit -> unit
