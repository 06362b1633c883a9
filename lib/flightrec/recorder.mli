(** The flight recorder: journals a pipeline run as a structured,
    versioned event log — one JSON object per line, no timestamps, so
    identical inputs yield byte-identical journals.

    A strict no-op outside every {!with_journal} scope, mirroring
    {!Feam_obs.Trace}. *)

(** Current journal schema version (header field [schema]). *)
val schema_version : int

(** [with_journal ~tool ~emit f] runs [f] with a fresh journal on the
    effect stack ({!Feam_util.Effects}), which takes every record made
    in no inner journal's scope.  [emit] gets the rendered journal at
    each {!flush} and when the scope closes, also when [f] raises, whose
    exception then surfaces. *)
val with_journal : tool:string -> emit:(string -> unit) -> (unit -> 'a) -> 'a

(** Whether a journal is in scope.  Allocates nothing. *)
val enabled : unit -> bool

(** Append one record of the given type to the innermost journal,
    stamped with its sequence number (per journal, from 1) and the
    innermost open {!Feam_obs.Trace} span id; every running
    {!Feam_util.Effects.capture} keeps its type and fields too.

    Every function below that journals takes its fields (or data) as a
    thunk, run only while a journal is in scope: any other call builds
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

(** Emit the innermost journal in scope, if records arrived since its
    last emission: the daemon's drain, and the CLI's at-exit path,
    which leaves through [exit] with the scope open. *)
val flush : unit -> unit
