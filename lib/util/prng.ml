(* Deterministic splittable PRNG (splitmix64).  All stochastic behaviour in
   the simulators — system errors, site quirks, compile failures — draws
   from seeded streams so that every evaluation run is reproducible. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's int without wrapping *)
  let v = Int64.to_int (Int64.logand (next_int64 t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

(* Uniform float in [0, 1). *)
let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Prng.bool: probability out of range";
  float t < p

(* Derive an independent stream from a string key: used to give each
   (site, stack, benchmark) coordinate its own deterministic quirk draw
   without ordering sensitivity. *)
let hash_key seed key =
  let h = ref (Int64.of_int (seed * 1000003 + 257)) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    key;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)

let of_key ~seed key = create (hash_key seed key)

(* One-shot deterministic Bernoulli draw for a keyed coordinate. *)
let keyed_bool ~seed ~p key = bool (of_key ~seed key) p

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | l -> List.nth l (int t (List.length l))
