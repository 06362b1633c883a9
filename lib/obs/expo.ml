(* Exposition surfaces for the metrics registry: the Prometheus text
   format and a byte-deterministic JSONL snapshot, the two wire formats
   a resident `feam serve` will mount at /metrics.

   Both renderers iterate the registry in stable (sorted) order and
   format numbers without locale or precision surprises, so two runs of
   the same pipeline under the same clock produce byte-identical
   output — CI diffs them. *)

module Json = Feam_util.Json

(* -- names and labels -- *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; everything else
   (our dots, mostly) normalizes to '_'.  All exported names carry the
   feam_ prefix. *)
let prom_name name =
  let b = Buffer.create (String.length name + 5) in
  Buffer.add_string b "feam_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Label values escape backslash, double quote and newline, per the
   exposition-format spec. *)
let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let sorted_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Render a label set (possibly with extras appended, e.g. le=...) as
   {k="v",...}; empty label sets render as the empty string. *)
let prom_labels labels =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") labels)
    ^ "}"

(* -- numbers -- *)

(* Counters and bucket counts are integers; everything else prints via
   %.17g-style shortest-roundtrip would be overkill — the registry only
   holds values we produced ourselves, so %g with an integer fast path
   is exact and stable. *)
let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* -- Prometheus text format -- *)

let render_prom () =
  let entries = Metrics.snapshot () in
  (* Group entries by metric name: the format wants one # TYPE line per
     name, label variants beneath it.  The snapshot is key-sorted, which
     does not group names contiguously ('{' sorts after letters), so
     group explicitly and sort groups by name. *)
  let names =
    List.sort_uniq String.compare
      (List.map (fun (_, e) -> e.Metrics.name) entries)
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let group =
        List.filter (fun (_, e) -> e.Metrics.name = name) entries
      in
      let kind =
        match group with
        | (_, e) :: _ -> Metrics.kind_to_string e.Metrics.metric
        | [] -> "untyped"
      in
      let pname = prom_name name in
      Buffer.add_string b ("# TYPE " ^ pname ^ " " ^ kind ^ "\n");
      List.iter
        (fun (_, e) ->
          let labels = sorted_labels e.Metrics.labels in
          match e.Metrics.metric with
          | Metrics.Counter c ->
            Buffer.add_string b
              (pname ^ prom_labels labels ^ " " ^ string_of_int !c ^ "\n")
          | Metrics.Gauge g ->
            Buffer.add_string b
              (pname ^ prom_labels labels ^ " " ^ prom_float !g ^ "\n")
          | Metrics.Histogram h ->
            (* Cumulative buckets, then +Inf, _sum and _count — the
               standard histogram exposition. *)
            let cumulative = ref 0 in
            Array.iteri
              (fun i bound ->
                cumulative := !cumulative + h.Metrics.counts.(i);
                Buffer.add_string b
                  (pname ^ "_bucket"
                  ^ prom_labels (labels @ [ ("le", prom_float bound) ])
                  ^ " " ^ string_of_int !cumulative ^ "\n"))
              h.Metrics.bounds;
            Buffer.add_string b
              (pname ^ "_bucket"
              ^ prom_labels (labels @ [ ("le", "+Inf") ])
              ^ " " ^ string_of_int h.Metrics.count ^ "\n");
            Buffer.add_string b
              (pname ^ "_sum" ^ prom_labels labels ^ " "
              ^ prom_float h.Metrics.sum ^ "\n");
            Buffer.add_string b
              (pname ^ "_count" ^ prom_labels labels ^ " "
              ^ string_of_int h.Metrics.count ^ "\n"))
        group)
    names;
  Buffer.contents b

(* -- JSONL snapshot -- *)

(* One record per registry entry, key-sorted, rendered through the
   canonical JSON printer: byte-deterministic by construction.  The
   timestamp comes from the caller (default 0) so snapshots diff clean
   unless the caller opts into wall time. *)
let render_jsonl ?(now_ns = 0L) () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, e) ->
      let record =
        Json.Obj
          [
            ("ts_ns", Json.Int (Int64.to_int now_ns));
            ("key", Json.Str k);
            ("name", Json.Str e.Metrics.name);
            ( "labels",
              Json.Obj
                (List.map
                   (fun (lk, lv) -> (lk, Json.Str lv))
                   (sorted_labels e.Metrics.labels)) );
            ("kind", Json.Str (Metrics.kind_to_string e.Metrics.metric));
            ("value", Metrics.metric_to_json e.Metrics.metric);
          ]
      in
      Buffer.add_string b (Json.render record);
      Buffer.add_char b '\n')
    (Metrics.snapshot ());
  Buffer.contents b
