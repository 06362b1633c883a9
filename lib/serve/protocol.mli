(** The daemon's line-delimited JSON wire protocol: request grammar and
    typed parse errors.  [parse] is total — it never raises, whatever
    the line contains — so one bad client line costs one error
    response, never the daemon. *)

type query = { q_binary : string; q_target : string }

type action =
  | Stale_ld_cache  (** mark the site's ld cache stale *)
  | Fresh_ld_cache  (** mark it current again *)
  | Remove_lib of string  (** drop a library basename from the site *)

type request =
  | Predict of query
  | Predict_batch of query list
  | Register_site of string  (** Table II catalog spec name *)
  | Register_binary of { rb_home : string; rb_benchmark : string }
  | Update_evidence of { ue_site : string; ue_action : action }
  | Snapshot_fleet of { sf_out : string option }
  | Crosscheck
  | Stats
  | Shutdown

type error =
  | Empty_line
  | Oversized of int  (** actual byte length *)
  | Malformed of string  (** JSON parse error *)
  | Not_an_object
  | Missing_verb
  | Unknown_verb of string
  | Missing_field of { verb : string; field : string }
  | Bad_field of { field : string; expected : string }

val verb_of_request : request -> string

val action_to_string : action -> string

val parse : string -> (request, error) result

val error_code : error -> string

(** The rendered [{"ok":false,...}] response line for a parse error. *)
val error_response : error -> string
