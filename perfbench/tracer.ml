(* In-memory span recorder for the traced run.  Spans are opened by the
   benchmark's own code around calls into each layer's public functions
   (no span lives inside the libraries), kept in memory, and written out
   as JSONL when the run ends.  A span's self time is its duration minus
   the time its child spans cover; allocation is split the same way. *)

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  name : string;
  ctx : string;  (* cell, scenario, epoch or request id *)
  start : float;
  mutable stop : float;
  alloc0 : float;
  mutable alloc : float;  (* words allocated while open, children included *)
  mutable child_s : float;
  mutable child_alloc : float;
}

let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 1

(* Words allocated so far, minor and major heaps, promotions counted
   once.  [Gc.minor_words] reads the allocation pointer, so spans
   shorter than a minor cycle still see their allocations. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let with_span ?ctx name f =
  let parent, inherited =
    match !stack with p :: _ -> (p.id, p.ctx) | [] -> (0, "")
  in
  let alloc0 = allocated_words () in
  let sp =
    {
      id = !next_id;
      parent;
      name;
      ctx = Option.value ctx ~default:inherited;
      start = Unix.gettimeofday ();
      stop = 0.0;
      alloc0;
      alloc = 0.0;
      child_s = 0.0;
      child_alloc = 0.0;
    }
  in
  incr next_id;
  stack := sp :: !stack;
  let close () =
    sp.stop <- Unix.gettimeofday ();
    sp.alloc <- allocated_words () -. sp.alloc0;
    (match !stack with _ :: rest -> stack := rest | [] -> ());
    (match !stack with
    | p :: _ ->
      p.child_s <- p.child_s +. (sp.stop -. sp.start);
      p.child_alloc <- p.child_alloc +. sp.alloc
    | [] -> ());
    finished := sp :: !finished
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

type layer = {
  mutable calls : int;
  mutable self_s : float;
  mutable durations : float list;  (* seconds, children included *)
  mutable self_words : float;
}

let layers () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let l =
        match Hashtbl.find_opt tbl sp.name with
        | Some l -> l
        | None ->
          let l = { calls = 0; self_s = 0.0; durations = []; self_words = 0.0 } in
          Hashtbl.add tbl sp.name l;
          l
      in
      let d = sp.stop -. sp.start in
      l.calls <- l.calls + 1;
      l.self_s <- l.self_s +. (d -. sp.child_s);
      l.durations <- d :: l.durations;
      l.self_words <- l.self_words +. (sp.alloc -. sp.child_alloc))
    !finished;
  tbl

(* Seconds covered by root spans: the part of the traced wall time some
   layer accounts for. *)
let covered_s () =
  List.fold_left
    (fun acc sp -> if sp.parent = 0 then acc +. (sp.stop -. sp.start) else acc)
    0.0 !finished

let write_jsonl path =
  let module J = Feam_util.Json in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun sp ->
          Out_channel.output_string oc
            (J.render
               (J.Obj
                  [
                    ("id", J.Int sp.id);
                    ("parent", J.Int sp.parent);
                    ("name", J.Str sp.name);
                    ("ctx", J.Str sp.ctx);
                    ("start", J.Float sp.start);
                    ("end", J.Float sp.stop);
                    ("alloc_w", J.Float sp.alloc);
                  ]));
          Out_channel.output_char oc '\n')
        (List.rev !finished))
