(* Labeled timers with allocation accounting.

   Spans answer "what did the pipeline do"; these timers answer "what
   does one named operation cost" — wall nanoseconds through an
   injectable clock plus allocated words from the [Gc] counters — and
   feed the metrics registry so `feam stats` can expose the
   distributions.  Like tracing, the whole module is a strict no-op
   until [set_enabled true]: the disabled path is one ref read, so
   timers left in hot paths cost nothing. *)

type state = { mutable enabled : bool; mutable clock : Clock.t }

let st = { enabled = false; clock = Clock.fixed () }

let set_enabled v = st.enabled <- v

(* The default fixed clock keeps timer output deterministic; the CLI
   installs {!Clock.wall} when real durations are wanted. *)
let set_clock c = st.clock <- c

let reset () =
  st.enabled <- false;
  st.clock <- Clock.fixed ()

(* Words allocated since program start, minor and major heaps combined
   (promotions counted once).  [Gc.minor_words] rather than the
   quick_stat field: only the former reads the allocation pointer, so
   spans shorter than a GC cycle still see their allocations. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Allocation bucket bounds, in words: 100 w up to 100 Mw. *)
let alloc_bounds = [| 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 |]

(* [with_timer ?labels name f] runs [f], observing its duration into the
   [name].ns histogram, its allocation into [name].alloc_words, and
   bumping the [name].calls counter — all under [labels]. *)
let with_timer ?(labels = []) name f =
  if not st.enabled then f ()
  else begin
    let t0 = st.clock () in
    let w0 = allocated_words () in
    Fun.protect f ~finally:(fun () ->
        let dt = Int64.to_float (Int64.sub (st.clock ()) t0) in
        let dw = allocated_words () -. w0 in
        Metrics.incr ~labels (name ^ ".calls");
        Metrics.observe ~labels (name ^ ".ns") dt;
        Metrics.observe ~labels ~bounds:alloc_bounds (name ^ ".alloc_words") dw)
  end
