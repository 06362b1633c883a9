(* The transfer planner: given the objects a migration wants at a
   target site and the per-site possession index, compute the minimal
   ordered set of objects to ship — everything wanted, minus what the
   site already holds, each distinct object once.

   Planning is a pure function ({!compute}) of the want list and a
   possession predicate; the live pipeline and `feam replay` share it,
   so a journaled plan reproduces byte-for-byte from its recorded
   wants (the same move Tec.decide makes for predictions). *)

module Chash = Feam_util.Chash
module Json = Feam_util.Json

type want = { w_label : string; w_key : Chash.t; w_size : int }

let want ~label ~key ~size = { w_label = label; w_key = key; w_size = size }

type item = { it_label : string; it_key : Chash.t; it_size : int }

type t = {
  plan_site : string;
  items : item list; (* ship order: want order, first label wins *)
  hits : int; (* wanted objects the site already held *)
  shipped_bytes : int;
  wanted_bytes : int; (* cost had every want shipped in full *)
}

(* [compute ~site ~possessed wants] — the pure planning core.  Wants
   are deduplicated by key (first label wins, order preserved); a want
   whose key satisfies [possessed] is a hit and ships nothing. *)
let compute ~site ~possessed wants =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let items = ref [] in
  let hits = ref 0 in
  let wanted_bytes = ref 0 in
  List.iter
    (fun w ->
      let hex = Chash.to_hex w.w_key in
      if not (Hashtbl.mem seen hex) then begin
        Hashtbl.add seen hex ();
        wanted_bytes := !wanted_bytes + w.w_size;
        if possessed w.w_key then incr hits
        else
          items :=
            { it_label = w.w_label; it_key = w.w_key; it_size = w.w_size }
            :: !items
      end)
    wants;
  let items = List.rev !items in
  let shipped_bytes =
    List.fold_left (fun acc it -> acc + it.it_size) 0 items
  in
  let plan =
    { plan_site = site; items; hits = !hits; shipped_bytes; wanted_bytes = !wanted_bytes }
  in
  Feam_obs.Metrics.observe "depot.plan_bytes" (float_of_int shipped_bytes);
  Feam_obs.Metrics.incr ~by:plan.hits "depot.plan_hits";
  Feam_obs.Metrics.incr ~by:(List.length items) "depot.plan_misses";
  (* Bytes possession saved: everything wanted but not shipped. *)
  Feam_obs.Metrics.incr
    ~by:(plan.wanted_bytes - shipped_bytes)
    "depot.plan_saved_bytes";
  plan

(* Bytes the legacy path would have shipped: every want in full,
   duplicates included. *)
let legacy_bytes wants =
  List.fold_left (fun acc w -> acc + w.w_size) 0 wants

(* -- per-site possession index ------------------------------------------- *)

module Possession = struct
  type index = (string * string, unit) Hashtbl.t (* (site, key hex) *)

  let create () : index = Hashtbl.create 256

  let mem (t : index) ~site key = Hashtbl.mem t (site, Chash.to_hex key)

  let add (t : index) ~site key = Hashtbl.replace t (site, Chash.to_hex key) ()

  (* Executing a plan makes the site hold every shipped object. *)
  let commit (t : index) plan =
    List.iter (fun it -> add t ~site:plan.plan_site it.it_key) plan.items
end

(* -- rendering ----------------------------------------------------------- *)

(* Deterministic text: ship order, then one summary line. *)
let render plan =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "transfer plan -> %s\n" plan.plan_site);
  List.iteri
    (fun i it ->
      Buffer.add_string buf
        (Printf.sprintf "  %2d. %s %10d %s\n" (i + 1)
           (Chash.to_hex it.it_key) it.it_size it.it_label))
    plan.items;
  Buffer.add_string buf
    (Printf.sprintf "ship %d objects, %d bytes (%d already at site, %d wanted bytes)\n"
       (List.length plan.items) plan.shipped_bytes plan.hits plan.wanted_bytes);
  Buffer.contents buf

let to_json plan =
  Json.Obj
    [
      ("site", Json.Str plan.plan_site);
      ( "items",
        Json.List
          (List.map
             (fun it ->
               Json.Obj
                 [
                   ("label", Json.Str it.it_label);
                   ("key", Json.Str (Chash.to_hex it.it_key));
                   ("size", Json.Int it.it_size);
                 ])
             plan.items) );
      ("shipped_bytes", Json.Int plan.shipped_bytes);
      ("hits", Json.Int plan.hits);
      ("wanted_bytes", Json.Int plan.wanted_bytes);
    ]

(* -- flight-recorder interaction ----------------------------------------- *)

(* Journal a plan with everything replay needs: one evidence record per
   deduplicated want (with its possession verdict at planning time) and
   a payload carrying the rendered plan.  {!of_journal_records} inverts
   this; replay re-runs {!compute} over the recorded wants and compares
   renderings byte-for-byte. *)
let journal ~wants plan =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let shipped : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun it -> Hashtbl.replace shipped (Chash.to_hex it.it_key) ())
    plan.items;
  List.iter
    (fun w ->
      let hex = Chash.to_hex w.w_key in
      if not (Hashtbl.mem seen hex) then begin
        Hashtbl.add seen hex ();
        Feam_flightrec.Recorder.evidence ~stage:"depot" ~kind:"want"
          (fun () ->
            [
              ("label", Json.Str w.w_label);
              ("key", Json.Str hex);
              ("size", Json.Int w.w_size);
              ("possessed", Json.Bool (not (Hashtbl.mem shipped hex)));
            ])
      end)
    wants;
  Feam_flightrec.Recorder.payload ~kind:"transfer_plan" (fun () ->
      Json.Obj
        [ ("site", Json.Str plan.plan_site); ("text", Json.Str (render plan)) ])

(* Rebuild the recorded wants and possession verdicts from "want"
   evidence fields, in journal order: (want, possessed-at-planning). *)
let want_of_fields fields =
  let str key = Option.bind (List.assoc_opt key fields) Json.to_string_opt in
  let int key = Option.bind (List.assoc_opt key fields) Json.to_int_opt in
  let bool key = Option.bind (List.assoc_opt key fields) Json.to_bool_opt in
  match (str "label", Option.bind (str "key") Chash.of_hex) with
  | Some label, Some key ->
    Some
      ( { w_label = label; w_key = key; w_size = Option.value (int "size") ~default:0 },
        Option.value (bool "possessed") ~default:false )
  | _ -> None
