(* Memory-speed probe.  The machine this benchmark runs on is shared:
   when neighbours load the memory system, FEAM's allocation-heavy work
   slows by up to half while a tight CPU loop barely moves, and such a
   phase can last a whole run.  The probe is a fixed pointer chase
   through an 8 MB single-cycle permutation held outside the OCaml heap,
   so it leaves the GC and the heap metrics alone and no change to FEAM
   can alter its time.  Runs take a sample on both sides of each unit of
   work, and a normalized time scales the unit's measured time by
   [reference_step_s] over the mean of the two samples. *)

let slots = 1 lsl 20

(* One step's time on an idle machine, roughly; it only sets the scale
   so that normalized times read close to seconds. *)
let reference_step_s = 125e-9

let table =
  lazy
    (let t = Bigarray.(Array1.create int c_layout slots) in
     for i = 0 to slots - 1 do
       t.{i} <- i
     done;
     (* Sattolo's shuffle: one cycle through every slot. *)
     let rng = Random.State.make [| 0x9e37 |] in
     for i = slots - 1 downto 1 do
       let j = Random.State.int rng i in
       let v = t.{i} in
       t.{i} <- t.{j};
       t.{j} <- v
     done;
     t)

let steps = 200_000

(* Seconds per step, one entry per sample. *)
let samples = ref []

(* One sample of ~25 ms; returns its seconds per step. *)
let sample () =
  let t = Lazy.force table in
  let t0 = Unix.gettimeofday () in
  let p = ref 0 in
  for _ = 1 to steps do
    p := t.{!p}
  done;
  ignore (Sys.opaque_identity !p);
  let step = (Unix.gettimeofday () -. t0) /. float_of_int steps in
  samples := step :: !samples;
  step

(* Factor that takes a time measured between samples [a] and [b] to
   the reference memory speed. *)
let factor a b = reference_step_s /. ((a +. b) /. 2.0)

(* The same from the median of every sample taken so far. *)
let run_factor () = reference_step_s /. Stats.median !samples
