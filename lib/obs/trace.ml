(* The tracer: hierarchical spans over an injectable clock, with
   completed spans handed to the configured sink.

   Disabled (the default) the tracer is a strict no-op: [with_span]
   runs its thunk directly without allocating, so instrumentation left
   in the hot paths costs nothing and changes no golden output. *)

type state = {
  mutable enabled : bool;
  mutable sink : Sink.t;
  mutable clock : Clock.t;
  mutable next_id : int;
  mutable stack : Span.t list; (* innermost open span first *)
  mutable record_alloc : bool; (* bracket spans with Gc counters *)
}

let st =
  {
    enabled = false;
    sink = Sink.noop;
    clock = Clock.fixed ();
    next_id = 1;
    stack = [];
    record_alloc = false;
  }

(* Opt-in allocation accounting: when on, every completed span carries
   alloc_minor_w/alloc_major_w attributes with the words its body
   allocated on each heap.  Off by default — reading the Gc counters
   per span is cheap but not free, and the extra attributes would churn
   the golden traces. *)
let set_record_alloc v = st.record_alloc <- v

let configure ?(clock = Clock.fixed ()) sink =
  st.enabled <- true;
  st.sink <- sink;
  st.clock <- clock;
  st.next_id <- 1;
  st.stack <- []

let disable () =
  st.enabled <- false;
  st.sink <- Sink.noop;
  st.next_id <- 1;
  st.stack <- []

let now_ns () = st.clock ()

(* Id of the innermost open span, if any — lets other subsystems (the
   flight recorder) link their records back to the trace. *)
let current_span_id () =
  match st.stack with [] -> None | span :: _ -> Some span.Span.id

(* Attach an attribute to the innermost open span (no-op outside one). *)
let set_attr key value =
  match st.stack with
  | [] -> ()
  | span :: _ -> span.Span.attrs <- (key, value) :: span.Span.attrs

(* Record a point-in-time event on the innermost open span. *)
let event ?(attrs = []) name =
  match st.stack with
  | [] -> ()
  | span :: _ ->
    span.Span.events <-
      { Span.ev_name = name; ev_at_ns = st.clock (); ev_attrs = attrs }
      :: span.Span.events

let with_span ?attrs name f =
  if not st.enabled then f ()
  else begin
    let parent, depth =
      match st.stack with
      | [] -> (None, 0)
      | p :: _ -> (Some p.Span.id, p.Span.depth + 1)
    in
    let span =
      {
        Span.id = st.next_id;
        parent;
        depth;
        name;
        start_ns = st.clock ();
        duration_ns = 0L;
        (* attrs accumulate reversed while open; completion restores
           declaration order below *)
        attrs = (match attrs with None -> [] | Some a -> List.rev a);
        events = [];
      }
    in
    st.next_id <- st.next_id + 1;
    st.stack <- span :: st.stack;
    (* Gc.minor_words (not the quick_stat field) reads the allocation
       pointer, so short spans still see their minor allocations. *)
    let alloc0 =
      if st.record_alloc then Some (Gc.minor_words (), Gc.quick_stat ())
      else None
    in
    (* The sink sees the span after the body; when the body raised, its
       exception surfaces whatever the sink does. *)
    let close () =
      (match st.stack with
      | s :: rest when s == span -> st.stack <- rest
      | _ -> ());
      (match alloc0 with
      | None -> ()
      | Some (minor0, g0) ->
        let g1 = Gc.quick_stat () in
        (* Prepended while still reversed, so after the rev below
           these land after the span's declared attributes. *)
        span.Span.attrs <-
          ("alloc_major_w",
           Span.Float (g1.Gc.major_words -. g0.Gc.major_words))
          :: ("alloc_minor_w", Span.Float (Gc.minor_words () -. minor0))
          :: span.Span.attrs);
      span.Span.duration_ns <- Int64.sub (st.clock ()) span.Span.start_ns;
      span.Span.attrs <- List.rev span.Span.attrs;
      span.Span.events <- List.rev span.Span.events;
      st.sink.Sink.on_span span
    in
    match f () with
    | result -> close (); result
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try close () with _ -> ());
      Printexc.raise_with_backtrace e bt
  end

let flush () = st.sink.Sink.flush ()
