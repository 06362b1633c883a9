(* Order statistics over raw samples.  Every sample stays in memory;
   percentiles are read off the sorted samples by linear interpolation
   between neighbouring ranks.  A tail percentile is reported only when
   at least ten samples lie beyond it; a median is always reported, with
   its sample count beside it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

let tail_ok ~n p = float_of_int n *. (1.0 -. p) >= 10.0

(* [None] when fewer than ten samples lie beyond the [p] quantile. *)
let tail xs p =
  let n = List.length xs in
  if tail_ok ~n p then Some (quantile_sorted (sorted xs) p) else None

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* One printed measurement; [value = None] marks a withheld tail
   percentile. *)
type reading = { name : string; value : float option; unit : string; n : int }

let reading ~n name unit value = { name; value = Some value; unit; n }

let median_reading ?(scale = 1.0) name unit xs =
  { name; value = Some (scale *. median xs); unit; n = List.length xs }

let tail_reading ?(scale = 1.0) name unit p xs =
  {
    name;
    value = Option.map (fun v -> scale *. v) (tail xs p);
    unit;
    n = List.length xs;
  }

let print_reading r =
  match r.value with
  | Some v -> Printf.printf "  %-32s %14.6g %-5s (n=%d)\n" r.name v r.unit r.n
  | None ->
    Printf.printf "  %-32s %14s %-5s (n=%d: fewer than ten samples beyond it)\n"
      r.name "withheld" r.unit r.n
