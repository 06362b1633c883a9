(* Tests for the remaining Feam_util modules: Prng, Table, Sim_clock and
   a clock's scope on the effect stack. *)

open Feam_util

(* -- Prng ---------------------------------------------------------------- *)

let draws n = List.init n Fun.id

let test_prng_determinism () =
  let a = Prng.of_key ~seed:42 "k" and b = Prng.of_key ~seed:42 "k" in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.pick a (draws 1000))
      (Prng.pick b (draws 1000))
  done

let test_prng_seed_sensitivity () =
  let a = Prng.of_key ~seed:1 "k" and b = Prng.of_key ~seed:2 "k" in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.pick a (draws 100_000) = Prng.pick b (draws 100_000) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_keyed_bool_deterministic () =
  let x = Prng.keyed_bool ~seed:5 ~p:0.5 "some/key" in
  for _ = 1 to 10 do
    Alcotest.(check bool) "stable" x (Prng.keyed_bool ~seed:5 ~p:0.5 "some/key")
  done

let test_keyed_bool_rate () =
  let hits = ref 0 in
  let n = 5000 in
  for i = 1 to n do
    if Prng.keyed_bool ~seed:3 ~p:0.2 (string_of_int i) then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.2" rate)
    true
    (rate > 0.17 && rate < 0.23)

let test_prng_bounds () =
  let g = Prng.of_key ~seed:11 "bounds" in
  for _ = 1 to 1000 do
    let x = Prng.pick g (draws 7) in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    (* a Bernoulli draw compares a uniform float in [0, 1) with p *)
    Alcotest.(check bool) "float below 1" true (Prng.bool g 1.0);
    Alcotest.(check bool) "float not below 0" false (Prng.bool g 0.0)
  done

let test_prng_invalid () =
  let g = Prng.of_key ~seed:1 "invalid" in
  Alcotest.check_raises "bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0));
  Alcotest.check_raises "empty choice" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick g []));
  Alcotest.check_raises "probability"
    (Invalid_argument "Prng.bool: probability out of range") (fun () ->
      ignore (Prng.bool g 1.5))

let test_pick () =
  let g = Prng.of_key ~seed:4 "pick" in
  for _ = 1 to 50 do
    let x = Prng.pick g [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem x [ 1; 2; 3 ])
  done

(* -- Table --------------------------------------------------------------- *)

let test_table_render () =
  let t =
    Table.make ~title:"T" ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let out = Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0 && out.[0] = 'T');
  Alcotest.(check bool) "contains cell" true
    (Feam_sysmodel.Str_split.contains ~sub:"333" out);
  (* all lines of the body share a width *)
  let widths =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '+')
    |> List.map String.length
  in
  Alcotest.(check bool) "rules align" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_validation () =
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.make: row width does not match header") (fun () ->
      ignore (Table.make ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_percent () =
  Alcotest.(check string) "round" "58%" (Table.percent 58 100);
  Alcotest.(check string) "n/a" "n/a" (Table.percent 3 0);
  Alcotest.(check string) "decimals" "33.3%" (Table.percent ~decimals:1 1 3)

(* -- Sim_clock ------------------------------------------------------------ *)

let test_clock () =
  let c = Sim_clock.create () in
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Sim_clock.elapsed c);
  Sim_clock.charge c 12.5;
  Sim_clock.charge c 7.5;
  Alcotest.(check (float 1e-9)) "sum" 20.0 (Sim_clock.elapsed c);
  Alcotest.check_raises "negative"
    (Invalid_argument "Sim_clock.charge: negative duration") (fun () ->
      Sim_clock.charge c (-1.0))

let test_clock_render () =
  let c = Sim_clock.create () in
  Sim_clock.charge c 125.0;
  Alcotest.(check string) "minutes" "2m05s" (Sim_clock.to_string c);
  let d = Sim_clock.create () in
  Sim_clock.charge d 3.25;
  Alcotest.(check string) "seconds" "3.2s" (Sim_clock.to_string d)

(* -- a clock's scope ------------------------------------------------------- *)

let charge = Feam_sysmodel.Cost.charge

let in_scope c =
  match Effects.clock () with Some c' -> c' == c | None -> false

(* Nested scopes both take a charge; the innermost is the one in scope. *)
let test_scopes_nest () =
  let outer = Sim_clock.create () and inner = Sim_clock.create () in
  Effects.with_clock outer (fun () ->
      charge 1.0;
      Effects.with_clock inner (fun () ->
          Alcotest.(check bool) "the inner clock is innermost" true
            (in_scope inner);
          charge 2.0);
      Alcotest.(check bool) "the outer clock is innermost again" true
        (in_scope outer));
  Alcotest.(check (float 0.0)) "the outer clock took both" 3.0
    (Sim_clock.elapsed outer);
  Alcotest.(check (float 0.0)) "the inner clock took its own" 2.0
    (Sim_clock.elapsed inner)

(* Outside every scope a charge reaches no clock, but a running tape
   still keeps it. *)
let test_charge_outside_scope () =
  let c = Sim_clock.create () in
  Effects.with_clock c ignore;
  Alcotest.(check bool) "no clock in scope" true (Effects.clock () = None);
  let (), events = Effects.capture (fun () -> charge 0.5) in
  Alcotest.(check bool) "the tape keeps the charge" true
    (events = [ Effects.Charge 0.5 ]);
  Alcotest.(check (float 0.0)) "no clock took it" 0.0 (Sim_clock.elapsed c)

(* A body that raises closes its scope. *)
let test_raising_body_closes_scope () =
  let c = Sim_clock.create () in
  (try
     Effects.with_clock c (fun () ->
         charge 1.0;
         failwith "body")
   with Failure _ -> ());
  Alcotest.(check bool) "no clock in scope" true (Effects.clock () = None);
  Alcotest.(check bool) "no capture open" false (Effects.capturing ());
  charge 2.0;
  Alcotest.(check (float 0.0)) "the clock kept what came before the raise" 1.0
    (Sim_clock.elapsed c)

(* -- Str_split ------------------------------------------------------------ *)

let test_str_split () =
  Alcotest.(check bool) "contains" true
    (Feam_sysmodel.Str_split.contains ~sub:"orl" "world");
  Alcotest.(check bool) "not contains" false
    (Feam_sysmodel.Str_split.contains ~sub:"xyz" "world");
  let find = Feam_sysmodel.Str_split.find in
  Alcotest.(check (list (option int))) "find ?from ?until"
    [ Some 1; Some 4; None; Some 4; None ]
    [
      find ~sub:"ab" "xabxab";
      find ~from:2 ~sub:"ab" "xabxab";
      find ~from:2 ~until:5 ~sub:"ab" "xabxab";
      find ~from:2 ~until:6 ~sub:"ab" "xabxab";
      find ~from:7 ~sub:"ab" "xabxab";
    ];
  Alcotest.(check (list bool)) "occurs_at"
    [ true; false; false; false ]
    (List.map
       (fun i -> Feam_sysmodel.Str_split.occurs_at ~sub:"ab" "xabxab" i)
       [ 4; 3; 5; -1 ])

let suite =
  ( "util-misc",
    [
      Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
      Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
      Alcotest.test_case "keyed bool deterministic" `Quick test_keyed_bool_deterministic;
      Alcotest.test_case "keyed bool rate" `Quick test_keyed_bool_rate;
      Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
      Alcotest.test_case "prng validation" `Quick test_prng_invalid;
      Alcotest.test_case "pick" `Quick test_pick;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table validation" `Quick test_table_validation;
      Alcotest.test_case "percent" `Quick test_percent;
      Alcotest.test_case "sim clock" `Quick test_clock;
      Alcotest.test_case "sim clock render" `Quick test_clock_render;
      Alcotest.test_case "clock scopes nest" `Quick test_scopes_nest;
      Alcotest.test_case "a charge outside every scope" `Quick
        test_charge_outside_scope;
      Alcotest.test_case "a raising body closes its scope" `Quick
        test_raising_body_closes_scope;
      Alcotest.test_case "str split" `Quick test_str_split;
    ] )
