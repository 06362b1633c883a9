(* On-disk store of epoch snapshots: one JSONL document per numbered
   epoch under a root directory.  Filenames are derived from the epoch
   number alone, so putting the same snapshot twice is idempotent and
   two runs of the same sequence produce byte-identical directories. *)

type t = { dir : string }

let open_ dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  { dir }

let file_of_epoch n = Printf.sprintf "epoch_%04d.jsonl" n

let path t n = Filename.concat t.dir (file_of_epoch n)

let put t snapshot =
  let p = path t snapshot.Snapshot.epoch in
  Out_channel.with_open_text p (fun oc ->
      Out_channel.output_string oc (Snapshot.to_jsonl snapshot));
  p
