(* Tests for the closure memo (DESIGN §21): a memoized resolution must
   equal a fresh walk, result and journal alike, whatever the file
   system did in between, and the memo must never carry an entry from
   one world into another that reuses its site names. *)

open Feam_sysmodel
open Feam_dynlinker

let lib ?(machine = Feam_elf.Types.X86_64) ?(needed = []) ?(verneeds = [])
    verdefs =
  Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~needed ~verneeds
    ~verdefs machine

let vn file versions = { Feam_elf.Spec.vn_file = file; vn_versions = versions }

let names = [| "libqa.so.1"; "libqb.so.1"; "libqc.so.1" |]

(* What a library file can hold: a dependency, versions, a version
   requirement, another architecture. *)
let variants =
  [|
    lib ~needed:[ "libqb.so.1" ] [ "QV_1" ];
    lib [ "QV_1"; "QV_2" ];
    lib ~needed:[ "libqc.so.1" ] ~verneeds:[ vn "libqc.so.1" [ "QV_2" ] ] [];
    lib ~machine:Feam_elf.Types.PPC64 [ "QV_1" ];
  |]

(* The directories the ops write to: two on LD_LIBRARY_PATH, the one
   $ORIGIN/../lib names for a root at /q/app/bin (and another root's
   DT_RPATH), and one no search path names, which only symlinks
   reach. *)
let dirs = [| "/q/one"; "/q/two"; "/q/app/lib"; "/q/off" |]

let envs = [| "/q/one:/q/two"; "/q/two" |]

(* Each root with the path it is read from.  The second and third
   differ only in that path; the fifth differs from the first only in a
   field the loader ignores, the sixth only in its verneeds. *)
let roots =
  let plain ?comments ?(verneeds = [ vn "libqb.so.1" [ "QV_2" ] ]) () =
    Feam_elf.Spec.make ?comments ~needed:[ "libqa.so.1"; "libc.so.6" ] ~verneeds
      Feam_elf.Types.X86_64
  in
  let origin =
    Feam_elf.Spec.make ~needed:[ "libqb.so.1"; "libqc.so.1" ]
      ~runpath:"$ORIGIN/../lib:relative/lib" Feam_elf.Types.X86_64
  in
  [|
    (plain (), None);
    (origin, Some "/q/app/bin/prog");
    (origin, Some "/q/one/prog");
    ( Feam_elf.Spec.make ~needed:[ "libqc.so.1"; "libqa.so.1" ]
        ~rpath:"/q/app/lib" Feam_elf.Types.X86_64,
      None );
    (plain ~comments:[ "GCC: (GNU) 4.4.5" ] (), None);
    (plain ~verneeds:[ vn "libqa.so.1" [ "QV_2" ] ] (), None);
  |]

type op =
  | Put of int * int * int  (** directory, name, variant *)
  | Remove of int * int  (** directory, name *)
  | Link of int * int * int
      (** a symlink in a directory to the same name in another *)
  | Resolve of int * int  (** root, environment *)
  | Scope of op list * bool  (** ops in a scope; [true]: it raises *)

let rec op_to_string = function
  | Put (d, n, v) -> Printf.sprintf "put %s/%s=%d" dirs.(d) names.(n) v
  | Remove (d, n) -> Printf.sprintf "rm %s/%s" dirs.(d) names.(n)
  | Link (d, n, t) ->
    Printf.sprintf "ln %s/%s->%s" dirs.(d) names.(n) dirs.(t)
  | Resolve (r, e) -> Printf.sprintf "resolve %d/%d" r e
  | Scope (ops, raises) ->
    Printf.sprintf "scope%s[%s]"
      (if raises then "!" else "")
      (String.concat "; " (List.map op_to_string ops))

let gen_ops =
  let open QCheck.Gen in
  let index a = int_bound (Array.length a - 1) in
  let flat =
    frequency
      [
        (3, map3 (fun d n v -> Put (d, n, v)) (index dirs) (index names) (index variants));
        (1, map2 (fun d n -> Remove (d, n)) (index dirs) (index names));
        (2, map3 (fun d n t -> Link (d, n, t)) (index dirs) (index names) (index dirs));
        (3, map2 (fun r e -> Resolve (r, e)) (index roots) (index envs));
      ]
  in
  let op =
    frequency
      [
        (6, flat);
        (1, map2 (fun ops raises -> Scope (ops, raises)) (list_size (int_range 1 6) flat) bool);
      ]
  in
  list_size (int_range 1 25) op

let count name = Option.value ~default:0 (Feam_obs.Metrics.counter_value name)

(* A fresh world: the same site every time, under the same name. *)
let world () = fst (Fixtures.small_site ~stacks:(Some []) ())

let resolve ?closures site (root, env) =
  let spec, path = roots.(root) in
  Resolve.run ?closures ?path site
    (Env.set (Site.base_env site) "LD_LIBRARY_PATH" envs.(env))
    spec

(* Everything a caller can see of a resolution. *)
let project (r : Resolve.t) =
  ( r.Resolve.root_spec,
    List.map (fun l -> (l.Resolve.lib_name, l.Resolve.lib_path, l.Resolve.lib_spec)) r.Resolve.resolved,
    r.Resolve.missing,
    List.map (fun m -> (m.Resolve.am_lib, m.Resolve.am_path)) r.Resolve.arch_mismatches,
    List.map
      (fun f -> (f.Resolve.vf_object, f.Resolve.vf_provider, f.Resolve.vf_scope_pos, f.Resolve.vf_version))
      r.Resolve.version_failures )

let rec exec ?closures site seen op =
  let vfs = Site.vfs site in
  match op with
  | Put (d, n, v) ->
    Vfs.add vfs (dirs.(d) ^ "/" ^ names.(n))
      (Vfs.Elf (Feam_elf.Builder.build variants.(v)))
  | Remove (d, n) -> Vfs.remove vfs (dirs.(d) ^ "/" ^ names.(n))
  | Link (d, n, t) ->
    Vfs.add vfs (dirs.(d) ^ "/" ^ names.(n)) (Vfs.Symlink (dirs.(t) ^ "/" ^ names.(n)))
  | Resolve (r, e) -> seen := project (resolve ?closures site (r, e)) :: !seen
  | Scope (ops, raises) -> (
    try
      Vfs.scoped vfs (fun () ->
          List.iter (exec ?closures site seen) ops;
          if raises then raise Exit)
    with Exit -> ())

(* Run [ops] in a fresh world under a fresh journal: every resolution's
   projection, in order, and the journal's bytes.  With a memo, a
   repeat of the last resolution must then hit it. *)
let run ?closures ops =
  let site = world () in
  Test_flightrec.with_recorder @@ fun () ->
  let seen = ref [] in
  List.iter (exec ?closures site seen) (ops @ [ Resolve (0, 0) ]);
  (match closures with
  | Some _ ->
    let hits = count "dynlinker.closure_memo.hit" in
    ignore (resolve ?closures site (0, 0));
    if count "dynlinker.closure_memo.hit" <> hits + 1 then
      failwith "a repeated resolution missed the memo"
  | None -> ignore (resolve site (0, 0)));
  List.rev !seen

let prop_memo_equals_walk =
  QCheck.Test.make ~name:"closure memo: results and journal equal plain walks" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map op_to_string ops)) gen_ops)
    (fun ops ->
      run ops = run ~closures:(Resolve.create_memo ()) ops)

(* -- unit cases ----------------------------------------------------------- *)

let put site dir name v =
  Vfs.add (Site.vfs site) (dir ^ "/" ^ name) (Vfs.Elf (Feam_elf.Builder.build variants.(v)))

let populated () =
  let site = world () in
  put site "/q/one" "libqa.so.1" 0;
  put site "/q/two" "libqb.so.1" 1;
  site

(* [f ()]'s closure-memo hits and misses, beside its result. *)
let counting f =
  let hits = count "dynlinker.closure_memo.hit" in
  let misses = count "dynlinker.closure_memo.miss" in
  let r = f () in
  (r, count "dynlinker.closure_memo.hit" - hits, count "dynlinker.closure_memo.miss" - misses)

let test_unrelated_write_keeps_hit () =
  let site = populated () in
  let closures = Resolve.create_memo () in
  let _, _, misses = counting (fun () -> resolve ~closures site (0, 0)) in
  Alcotest.(check int) "the first walk misses" 1 misses;
  Vfs.add (Site.vfs site) "/home/user/notes.txt" (Vfs.Text "unrelated");
  Vfs.scoped (Site.vfs site) (fun () -> put site "/tmp/feam" "libqa.so.1" 1);
  let r, hits, misses = counting (fun () -> resolve ~closures site (0, 0)) in
  Alcotest.(check (pair int int)) "writes nowhere it looked keep the hit" (1, 0) (hits, misses);
  Alcotest.(check bool) "and the hit is the walk" true
    (project r = project (resolve site (0, 0)));
  put site "/q/two" "libqc.so.1" 1;
  let _, hits, misses = counting (fun () -> resolve ~closures site (0, 0)) in
  Alcotest.(check (pair int int)) "a write where it looked misses" (0, 1) (hits, misses)

let test_worlds_never_share () =
  let a = populated () in
  let b = populated () in
  put b "/q/one" "libqa.so.1" 3 (* b's libqa is for another ISA *);
  let closures = Resolve.create_memo () in
  Alcotest.(check string) "the worlds share a site name" (Site.name a) (Site.name b);
  let check what site =
    let r, _, misses = counting (fun () -> resolve ~closures site (0, 0)) in
    Alcotest.(check int) (what ^ " walks") 1 misses;
    Alcotest.(check bool) (what ^ " gets its own closure") true
      (project r = project (resolve site (0, 0)))
  in
  check "a" a;
  check "b" b;
  check "a again" a

let test_new_vfs_drops_entries () =
  let closures = Resolve.create_memo () in
  let a = populated () in
  let _, _, misses = counting (fun () -> resolve ~closures a (0, 0)) in
  Alcotest.(check int) "a walks" 1 misses;
  let b = populated () in
  let _, hits, misses = counting (fun () -> resolve ~closures b (0, 0)) in
  Alcotest.(check (pair int int)) "the same key on a new file system walks" (0, 1) (hits, misses);
  let _, hits, _ = counting (fun () -> resolve ~closures b (0, 0)) in
  Alcotest.(check int) "and then hits" 1 hits;
  let _, hits, misses = counting (fun () -> resolve ~closures a (0, 0)) in
  Alcotest.(check (pair int int)) "a's entries were dropped" (0, 1) (hits, misses)

let suite =
  ( "closure memo",
    [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
        prop_memo_equals_walk;
      Alcotest.test_case "a write elsewhere keeps a hit" `Quick
        test_unrelated_write_keeps_hit;
      Alcotest.test_case "worlds sharing site names share no entry" `Quick
        test_worlds_never_share;
      Alcotest.test_case "a new file system drops a name's entries" `Quick
        test_new_vfs_drops_entries;
    ] )
