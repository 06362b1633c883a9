(* Tests for the seed-sweep aggregation. *)

open Feam_evalharness

let test_single_seed_sweep () =
  let aggregates = Sweep.run 1 in
  Alcotest.(check int) "all ten paper metrics" 10 (List.length aggregates);
  List.iter
    (fun a ->
      (* one seed: mean = min = max *)
      Alcotest.(check (float 1e-9)) (a.Sweep.metric ^ " mean=min") a.Sweep.mean
        a.Sweep.minimum;
      Alcotest.(check (float 1e-9)) (a.Sweep.metric ^ " mean=max") a.Sweep.mean
        a.Sweep.maximum;
      (* percentages are sane *)
      Alcotest.(check bool) (a.Sweep.metric ^ " in range") true
        (a.Sweep.mean >= 0.0 && a.Sweep.mean <= 100.0))
    aggregates;
  (* the default-seed run satisfies the headline shape bounds *)
  let get name =
    (List.find (fun a -> a.Sweep.metric = name) aggregates).Sweep.mean
  in
  Alcotest.(check bool) "extended NAS > 90" true (get "extended NAS" > 90.0);
  Alcotest.(check bool) "after > before (NAS)" true
    (get "after NAS" > get "before NAS");
  Alcotest.(check bool) "after > before (SPEC)" true
    (get "after SPEC" > get "before SPEC");
  Alcotest.(check bool) "table renders" true
    (String.length (Feam_util.Table.render (Sweep.table ~seeds:1 aggregates)) > 0)

let test_sweep_deterministic () =
  let a = Sweep.run 1 in
  let b = Sweep.run 1 in
  List.iter2
    (fun x y ->
      Alcotest.(check (float 1e-9)) x.Sweep.metric x.Sweep.mean y.Sweep.mean)
    a b

let suite =
  ( "sweep",
    [
      Alcotest.test_case "single-seed sweep" `Slow test_single_seed_sweep;
      Alcotest.test_case "sweep deterministic" `Slow test_sweep_deterministic;
    ] )
