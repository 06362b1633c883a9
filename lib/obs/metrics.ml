(* Process-global metrics registry: counters, gauges, and fixed-bucket
   histograms, each addressed by a name plus optional labels
   (e.g. predict.outcome{result=ready}).  Recording is always on — it is
   cheap, changes no output, and lets `feam metrics` report on a run
   that never configured a trace sink. *)

type hist = {
  bounds : float array; (* ascending upper bucket bounds *)
  counts : int array;   (* length bounds + 1; the last is overflow *)
  mutable sum : float;
  mutable count : int;
}

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of hist

type entry = {
  name : string;
  labels : (string * string) list;
  metric : metric;
}

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let key name labels =
  match labels with
  | [] -> name
  | labels ->
    let labels =
      List.sort (fun (a, _) (b, _) -> String.compare a b) labels
    in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

(* Nanosecond-oriented log-linear defaults, HdrHistogram-style: every
   power-of-two octave from 2^10 ns (~1 us) to 2^34 ns (~17 s) is split
   into [sub_buckets] equal-width buckets, so a bucket is at most 25% of
   its value wide and a tail reads as a number, not a decade.  Values
   above the last bound land in the overflow bucket. *)
let sub_buckets = 4
let min_exp = 10
let max_exp = 34

let default_bounds =
  Array.init
    (((max_exp - min_exp) * sub_buckets) + 1)
    (fun i ->
      Float.ldexp
        (1.0 +. (float_of_int (i mod sub_buckets) /. float_of_int sub_buckets))
        (min_exp + (i / sub_buckets)))

(* The default bucket of [v] in O(1): [frexp] gives the octave, the
   mantissa the sub-bucket.  Bounds are inclusive upper edges, as in
   the linear scan custom bounds use. *)
let default_bucket v =
  if not (v > default_bounds.(0)) then 0
  else if v > default_bounds.(Array.length default_bounds - 1) then
    Array.length default_bounds
  else
    let m, e = Float.frexp v in
    (* v = x * 2^(e-1) with x = 2m in [1, 2) *)
    let octave = e - 1 - min_exp in
    let fraction = (2.0 *. m) -. 1.0 in
    let sub = int_of_float (Float.ceil (fraction *. float_of_int sub_buckets)) in
    (octave * sub_buckets) + sub

let find_or_add name labels make =
  let k = key name labels in
  match Hashtbl.find_opt registry k with
  | Some e -> e.metric
  | None ->
    let metric = make () in
    Hashtbl.add registry k { name; labels; metric };
    metric

(* Counters that count real work: the cache families ([*.hit],
   [*.miss], [*.saved_bytes]) and bdc.describe, which only a
   describe-memo miss moves.  A memo hit must not move them, so no
   tape takes them, and the reference oracle leaves them out. *)
let counts_work name =
  String.equal name "bdc.describe"
  || String.ends_with ~suffix:".hit" name
  || String.ends_with ~suffix:".miss" name
  || String.ends_with ~suffix:".saved_bytes" name

(* The counters a tape takes: all but those that count real work, the
   profiler's [*.calls], and flightrec.records, which a replayed record
   moves by itself. *)
let taped name =
  not
    (counts_work name
    || String.ends_with ~suffix:".calls" name
    || String.equal name "flightrec.records")

let incr ?(by = 1) ?(labels = []) name =
  if Feam_util.Effects.capturing () && taped name then
    Feam_util.Effects.(note (Count (name, labels, by)));
  match find_or_add name labels (fun () -> Counter (ref 0)) with
  | Counter c -> c := !c + by
  | Gauge _ | Histogram _ ->
    invalid_arg ("Metrics.incr: " ^ name ^ " is not a counter")

let set_gauge ?(labels = []) name v =
  match find_or_add name labels (fun () -> Gauge (ref 0.0)) with
  | Gauge g -> g := v
  | Counter _ | Histogram _ ->
    invalid_arg ("Metrics.set_gauge: " ^ name ^ " is not a gauge")

(* [bounds] only takes effect when the histogram is first created. *)
let observe ?(labels = []) ?(bounds = default_bounds) name v =
  let make () =
    Histogram
      {
        bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        sum = 0.0;
        count = 0;
      }
  in
  match find_or_add name labels make with
  | Histogram h ->
    let rec bucket i =
      if i >= Array.length h.bounds then i
      else if v <= h.bounds.(i) then i
      else bucket (i + 1)
    in
    let i = if h.bounds == default_bounds then default_bucket v else bucket 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. v;
    h.count <- h.count + 1
  | Counter _ | Gauge _ ->
    invalid_arg ("Metrics.observe: " ^ name ^ " is not a histogram")

let counter_value ?(labels = []) name =
  match Hashtbl.find_opt registry (key name labels) with
  | Some { metric = Counter c; _ } -> Some !c
  | _ -> None

let histogram_value ?(labels = []) name =
  match Hashtbl.find_opt registry (key name labels) with
  | Some { metric = Histogram h; _ } -> Some h
  | _ -> None

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let reset () = Hashtbl.reset registry

(* Entries in stable (key-sorted) order, for rendering and tests. *)
let snapshot () =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let value_to_string = function
  | Counter c -> string_of_int !c
  | Gauge g -> Printf.sprintf "%g" !g
  | Histogram h ->
    Printf.sprintf "n=%d mean=%g sum=%g" h.count (hist_mean h) h.sum

let kind_to_string = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let render_text () =
  let rows =
    List.map
      (fun (k, e) -> [ k; kind_to_string e.metric; value_to_string e.metric ])
      (snapshot ())
  in
  Feam_util.Table.render
    (Feam_util.Table.make ~title:"feam metrics"
       ~aligns:[ Feam_util.Table.Left; Feam_util.Table.Left; Feam_util.Table.Right ]
       ~header:[ "Metric"; "Kind"; "Value" ]
       rows)

let metric_to_json = function
  | Counter c -> Feam_util.Json.Int !c
  | Gauge g -> Feam_util.Json.Float !g
  | Histogram h ->
    let open Feam_util.Json in
    Obj
      [
        ("count", Int h.count);
        ("sum", Float h.sum);
        ("mean", Float (hist_mean h));
        ("bounds", List (Array.to_list (Array.map (fun b -> Float b) h.bounds)));
        ("counts", List (Array.to_list (Array.map (fun c -> Int c) h.counts)));
      ]

let to_json () =
  let open Feam_util.Json in
  Obj
    (List.map
       (fun (k, e) ->
         ( k,
           Obj
             [
               ("name", Str e.name);
               ( "labels",
                 Obj (List.map (fun (lk, lv) -> (lk, Str lv)) e.labels) );
               ("kind", Str (kind_to_string e.metric));
               ("value", metric_to_json e.metric);
             ] ))
       (snapshot ()))
