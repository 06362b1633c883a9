(** The perf-regression sentinel: schema and comparison logic for
    BENCH_history.jsonl.  [feam bench report] compares the latest run
    against the geometric mean of a rolling window of earlier runs. *)

type run = {
  seq : int;  (** 1-based, strictly increasing down the file *)
  benches : (string * float) list;  (** bench name -> mean ns/op *)
}

val parse_history : string -> (run list, string) result
val render_history : run list -> string

type comparison = {
  bench : string;
  baseline : float;  (** geomean ns/op over the window *)
  latest : float;
  ratio : float;  (** latest / baseline; > 1 is slower *)
  regressed : bool;
}

type report = {
  latest_seq : int;
  window : int;
  threshold : float;
  rows : comparison list;
  geomean_ratio : float option;
}

type outcome = No_runs | No_baseline of run | Compared of report

(** Compare the latest run with up to [window] earlier ones; a bench
    regresses when its ratio exceeds [threshold]. *)
val evaluate : ?window:int -> ?threshold:float -> run list -> outcome

(** 1 when any bench regressed, else 0. *)
val exit_code : outcome -> int

val render : outcome -> string

(** Check a BENCH_feam.json document: its bench count, or every
    problem found. *)
val validate_bench_json : Feam_util.Json.t -> (int, string list) result
