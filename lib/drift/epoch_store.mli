(** On-disk store of epoch snapshots: one JSONL document per numbered
    epoch under a root directory, byte-identical across runs of the
    same sequence. *)

type t

(** Open (creating if absent) a store rooted at the directory. *)
val open_ : string -> t

(** Write the snapshot under its epoch number; returns the file path.
    Idempotent: the same snapshot writes the same bytes. *)
val put : t -> Snapshot.t -> string
