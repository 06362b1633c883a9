(* The perf-regression sentinel: schema and comparison logic for
   BENCH_history.jsonl, the bench suite's run-over-run trajectory.

   bench/main.ml appends one line per run — a sequence number plus each
   bench's mean ns/op (no timestamps, per the repo's determinism
   discipline) — and `feam bench report` compares the latest run
   against the geometric mean of a rolling window of earlier runs,
   flagging any bench whose ratio exceeds a threshold.  The same module
   validates both BENCH files for CI, so the schema lives in exactly
   one place. *)

module Json = Feam_util.Json
module Table = Feam_util.Table

let schema_version = 1

type run = {
  seq : int; (* 1-based, strictly increasing down the file *)
  benches : (string * float) list; (* bench name -> mean ns/op *)
}

(* -- history serialization -- *)

let run_to_json r =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("run", Json.Int r.seq);
      ( "benches",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) r.benches) );
    ]

let run_of_json json =
  match (Json.int_field "run" json, Json.member "benches" json) with
  | Some seq, _ when seq < 1 -> Error "run numbers start at 1"
  | Some seq, Some (Json.Obj benches) ->
    let rec convert acc = function
      | [] -> Ok { seq; benches = List.rev acc }
      | (name, v) :: rest -> (
        match Json.to_number_opt v with
        | Some ns when ns > 0.0 -> convert ((name, ns) :: acc) rest
        | Some _ -> Error (Printf.sprintf "bench %S: ns/op must be positive" name)
        | None -> Error (Printf.sprintf "bench %S: ns/op is not a number" name))
    in
    convert [] benches
  | _ -> Error "record needs an integer run and a benches object"

let parse_history text =
  Feam_util.Jsonl.read_records ~current:schema_version
    ~seq:("run", fun r -> r.seq)
    ~decode:run_of_json text
  |> Result.map_error Feam_util.Jsonl.error_to_string

let render_history runs =
  Feam_util.Jsonl.render (Seq.map run_to_json (List.to_seq runs))

(* -- comparison -- *)

let geomean = function
  | [] -> invalid_arg "Benchtrend.geomean: empty"
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))

type comparison = {
  bench : string;
  baseline : float; (* geomean ns/op over the window *)
  latest : float;
  ratio : float;    (* latest / baseline; > 1 is slower *)
  regressed : bool;
}

type report = {
  latest_seq : int;
  window : int;     (* baseline runs actually used *)
  threshold : float;
  rows : comparison list;      (* bench-name order *)
  geomean_ratio : float option; (* None when no bench overlaps *)
}

type outcome =
  | No_runs
  | No_baseline of run (* the history holds only this first run *)
  | Compared of report

(* Compare the last run against the geometric mean of up to [window]
   runs before it.  A bench only participates when the baseline window
   recorded it at least once; brand-new benches are reported separately
   by their absence from [rows]. *)
let evaluate ?(window = 5) ?(threshold = 1.30) runs =
  match List.rev runs with
  | [] -> No_runs
  | latest :: [] -> No_baseline latest
  | latest :: earlier ->
    let baseline_runs = List.filteri (fun i _ -> i < window) earlier in
    let rows =
      latest.benches
      |> List.filter_map (fun (name, ns) ->
             let history =
               List.filter_map
                 (fun r -> List.assoc_opt name r.benches)
                 baseline_runs
             in
             match history with
             | [] -> None
             | history ->
               let baseline = geomean history in
               let ratio = ns /. baseline in
               Some
                 { bench = name; baseline; latest = ns; ratio;
                   regressed = ratio > threshold })
      |> List.sort (fun a b -> String.compare a.bench b.bench)
    in
    Compared
      {
        latest_seq = latest.seq;
        window = List.length baseline_runs;
        threshold;
        rows;
        geomean_ratio =
          (match rows with
          | [] -> None
          | rows -> Some (geomean (List.map (fun r -> r.ratio) rows)));
      }

let regressions report = List.filter (fun r -> r.regressed) report.rows

let exit_code = function
  | Compared report when regressions report <> [] -> 1
  | No_runs | No_baseline _ | Compared _ -> 0

let render = function
  | No_runs -> "bench report: no runs recorded (run the bench suite first)\n"
  | No_baseline r ->
    Printf.sprintf
      "bench report: no baseline yet — run %d is the first recorded entry \
       (%d benches)\n"
      r.seq
      (List.length r.benches)
  | Compared report ->
    let flag c =
      if c.regressed then "REGRESSED"
      else if c.ratio < 1.0 /. report.threshold then "improved"
      else ""
    in
    let rows =
      List.map
        (fun c ->
          [
            c.bench;
            Printf.sprintf "%.1f" c.baseline;
            Printf.sprintf "%.1f" c.latest;
            Printf.sprintf "%.2fx" c.ratio;
            flag c;
          ])
        report.rows
    in
    let table =
      Table.make
        ~title:
          (Printf.sprintf "bench trend: run %d vs geomean of last %d run%s"
             report.latest_seq report.window
             (if report.window = 1 then "" else "s"))
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
        ~header:[ "Bench"; "Baseline ns"; "Latest ns"; "Ratio"; "" ]
        rows
    in
    let summary =
      match report.geomean_ratio with
      | None -> "no bench overlaps the baseline window\n"
      | Some g ->
        Printf.sprintf
          "geomean ratio %.3fx over %d benches (threshold %.2fx): %d \
           regression%s\n"
          g (List.length report.rows) report.threshold
          (List.length (regressions report))
          (if List.length (regressions report) = 1 then "" else "s")
    in
    Table.render table ^ summary

(* -- BENCH_feam.json schema validation (CI) -- *)

(* Validate the bench snapshot written by bench/main.ml: schema tag,
   numeric headline means, and per-bench histograms whose bucket counts
   are consistent with the recorded iteration count.  Returns the bench
   count or every problem found. *)
let validate_bench_json json =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match Json.int_field "schema" json with
  | Some v when v = schema_version -> ()
  | Some v -> err "schema: unsupported version %d (want %d)" v schema_version
  | None -> err "schema: missing integer field");
  (match Json.member "headline_ns_per_op" json with
  | Some (Json.Obj fields) ->
    List.iter
      (fun (name, v) ->
        match Json.to_number_opt v with
        | Some ns when ns > 0.0 -> ()
        | _ -> err "headline_ns_per_op.%s: not a positive number" name)
      fields
  | Some _ -> err "headline_ns_per_op: not an object"
  | None -> err "headline_ns_per_op: missing");
  let benches =
    match Json.member "benches" json with
    | Some (Json.List benches) -> benches
    | Some _ ->
      err "benches: not a list";
      []
    | None ->
      err "benches: missing";
      []
  in
  List.iteri
    (fun i bench ->
      let name =
        match Json.str_field "name" bench with
        | Some n -> n
        | None ->
          err "benches[%d]: missing name" i;
          Printf.sprintf "benches[%d]" i
      in
      let iterations =
        match Json.int_field "iterations" bench with
        | Some n when n >= 1 -> Some n
        | Some n ->
          err "%s: iterations %d < 1" name n;
          None
        | None ->
          err "%s: missing integer iterations" name;
          None
      in
      (match Json.number_field "ns_per_op" bench with
      | Some ns when ns > 0.0 -> ()
      | _ -> err "%s: ns_per_op is not a positive number" name);
      let bounds =
        match Json.member "bounds_ns" bench with
        | Some (Json.List bs) ->
          let floats = List.filter_map Json.to_number_opt bs in
          if List.length floats <> List.length bs then begin
            err "%s: bounds_ns holds non-numbers" name;
            None
          end
          else begin
            let rec ascending = function
              | a :: (b :: _ as rest) -> a < b && ascending rest
              | _ -> true
            in
            if not (ascending floats) then
              err "%s: bounds_ns is not strictly ascending" name;
            Some floats
          end
        | _ ->
          err "%s: missing bounds_ns list" name;
          None
      in
      match Json.member "bucket_counts" bench with
      | Some (Json.List cs) -> (
        let counts = List.filter_map Json.to_int_opt cs in
        if List.length counts <> List.length cs then
          err "%s: bucket_counts holds non-integers" name
        else begin
          (match bounds with
          | Some bounds when List.length counts <> List.length bounds + 1 ->
            err "%s: %d bucket counts for %d bounds (want bounds+1)" name
              (List.length counts) (List.length bounds)
          | _ -> ());
          match iterations with
          | Some n when List.fold_left ( + ) 0 counts <> n ->
            err "%s: bucket counts sum to %d, iterations say %d" name
              (List.fold_left ( + ) 0 counts)
              n
          | _ -> ()
        end)
      | _ -> err "%s: missing bucket_counts list" name)
    benches;
  match !errors with
  | [] -> Ok (List.length benches)
  | errors -> Error (List.rev errors)
