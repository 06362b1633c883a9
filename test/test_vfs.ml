(* Tests for the virtual filesystem. *)

open Feam_sysmodel

let mk () = Vfs.create ()

let test_add_find () =
  let fs = mk () in
  Vfs.add fs "/etc/hosts" (Vfs.Text "localhost");
  Alcotest.(check bool) "exists" true (Vfs.exists fs "/etc/hosts");
  Alcotest.(check bool) "missing" false (Vfs.exists fs "/etc/nothing");
  match Vfs.find fs "/etc/hosts" with
  | Some { Vfs.kind = Vfs.Text body; _ } -> Alcotest.(check string) "body" "localhost" body
  | _ -> Alcotest.fail "wrong kind"

let test_normalize () =
  let fs = mk () in
  Vfs.add fs "/a//b/./c" (Vfs.Text "x");
  Alcotest.(check bool) "collapsed" true (Vfs.exists fs "/a/b/c");
  Vfs.add fs "/a/b/../d" (Vfs.Text "y");
  Alcotest.(check bool) "dotdot" true (Vfs.exists fs "/a/d");
  Alcotest.check_raises "relative rejected"
    (Invalid_argument "Vfs: path must be absolute: \"x/y\"") (fun () ->
      ignore (Vfs.exists fs "x/y"))

let test_dirname_basename () =
  Alcotest.(check string) "dirname" "/a/b" (Vfs.dirname "/a/b/c");
  Alcotest.(check string) "dirname root" "/" (Vfs.dirname "/c");
  Alcotest.(check string) "basename" "c" (Vfs.basename "/a/b/c")

let test_symlink () =
  let fs = mk () in
  Vfs.add fs "/lib64/libz.so.1.2.3" (Vfs.Text "real");
  Vfs.add fs "/lib64/libz.so.1" (Vfs.Symlink "/lib64/libz.so.1.2.3");
  Vfs.add fs "/lib64/libz.so" (Vfs.Symlink "libz.so.1") (* relative link *);
  (match Vfs.resolve fs "/lib64/libz.so" with
  | Some (path, _) -> Alcotest.(check string) "chain" "/lib64/libz.so.1.2.3" path
  | None -> Alcotest.fail "unresolved");
  (* cycles terminate *)
  Vfs.add fs "/x" (Vfs.Symlink "/y");
  Vfs.add fs "/y" (Vfs.Symlink "/x");
  Alcotest.(check bool) "cycle" true (Vfs.resolve fs "/x" = None)

let test_list_dir () =
  let fs = mk () in
  Vfs.add fs "/opt/a/lib/libx.so" (Vfs.Text "");
  Vfs.add fs "/opt/a/bin/tool" (Vfs.Text "");
  Vfs.add fs "/opt/b" (Vfs.Text "");
  let under dir = Vfs.find_under fs dir (fun _ -> true) in
  Alcotest.(check (list string)) "everything below, sorted"
    [ "/opt/a/bin/tool"; "/opt/a/lib/libx.so"; "/opt/b" ]
    (under "/opt");
  Alcotest.(check (list string)) "nested" [ "/opt/a/bin/tool"; "/opt/a/lib/libx.so" ]
    (under "/opt/a");
  Alcotest.(check (list string)) "nothing below a file" [] (under "/opt/b/zzz")

let test_find_by_basename () =
  let fs = mk () in
  Vfs.add fs "/lib64/libmpi.so.0" (Vfs.Text "");
  Vfs.add fs "/opt/x/lib/libmpi.so.0" (Vfs.Text "");
  Vfs.add fs "/lib64/libmpich.so.1" (Vfs.Text "");
  let hits = Vfs.find_by_basename fs (fun b -> b = "libmpi.so.0") in
  Alcotest.(check int) "two hits" 2 (List.length hits);
  let under = Vfs.find_under fs "/opt" (fun b -> String.length b > 0 && b.[0] = 'l') in
  Alcotest.(check (list string)) "scoped" [ "/opt/x/lib/libmpi.so.0" ] under

let test_sizes () =
  let fs = mk () in
  Vfs.add ~declared_size:1000 fs "/opt/a/one" (Vfs.Text "tiny");
  Vfs.add ~declared_size:2000 fs "/opt/a/two" (Vfs.Text "tiny");
  Vfs.add fs "/opt/b/three" (Vfs.Text "12345");
  Alcotest.(check (option int)) "declared" (Some 1000) (Vfs.file_size fs "/opt/a/one");
  Alcotest.(check (option int)) "default = content" (Some 5)
    (Vfs.file_size fs "/opt/b/three")

let test_remove () =
  let fs = mk () in
  Vfs.add fs "/tmp/feam/a" (Vfs.Text "");
  Vfs.add fs "/tmp/feam/sub/b" (Vfs.Text "");
  Vfs.add fs "/tmp/other" (Vfs.Text "");
  Vfs.remove_tree fs "/tmp/feam";
  Alcotest.(check bool) "removed" false (Vfs.exists fs "/tmp/feam/a");
  Alcotest.(check bool) "removed nested" false (Vfs.exists fs "/tmp/feam/sub/b");
  Alcotest.(check bool) "sibling kept" true (Vfs.exists fs "/tmp/other");
  Vfs.remove fs "/tmp/other";
  Alcotest.(check bool) "single removed" false (Vfs.exists fs "/tmp/other")

let test_overwrite () =
  let fs = mk () in
  Vfs.add fs "/f" (Vfs.Text "old");
  Vfs.add fs "/f" (Vfs.Text "new");
  match Vfs.find fs "/f" with
  | Some { Vfs.kind = Vfs.Text b; _ } -> Alcotest.(check string) "replaced" "new" b
  | _ -> Alcotest.fail "missing"

(* The path a file added at [p] is stored under. *)
let stored p =
  let fs = mk () in
  Vfs.add fs p (Vfs.Text "");
  match Vfs.find_by_basename fs (fun _ -> true) with
  | [ n ] -> n
  | paths -> Alcotest.failf "%S stored as %d paths" p (List.length paths)

(* qcheck: normalize is idempotent and stays absolute *)
let gen_path =
  QCheck.Gen.(
    let seg = oneofl [ "a"; "bb"; "."; ".."; "lib64"; "x" ] in
    map (fun segs -> "/" ^ String.concat "/" segs) (list_size (int_range 0 6) seg))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"vfs: normalize idempotent" ~count:300
    (QCheck.make ~print:Fun.id gen_path) (fun p ->
      let n = stored p in
      stored n = n && String.length n > 0 && n.[0] = '/')

(* The fold over split components that [normalize] skips for a path
   that is already normal. *)
let reference_normalize path =
  let stack =
    List.fold_left
      (fun stack part ->
        match part with
        | "" | "." -> stack
        | ".." -> ( match stack with [] -> [] | _ :: rest -> rest)
        | p -> p :: stack)
      [] (String.split_on_char '/' path)
  in
  "/" ^ String.concat "/" (List.rev stack)

(* Paths with every component [normalize] has to handle: empty ones
   ("//"), ".", "..", names that merely start with a dot, and an
   optional trailing "/". *)
let gen_raw_path =
  QCheck.Gen.(
    let seg = oneofl [ ""; "."; ".."; "..."; ".a"; "a"; "bb"; "lib64" ] in
    map2
      (fun segs slash -> "/" ^ String.concat "/" segs ^ if slash then "/" else "")
      (list_size (int_range 0 6) seg)
      bool)

let prop_normalize_reference =
  QCheck.Test.make ~name:"vfs: normalize equals the split/fold reference"
    ~count:1000 (QCheck.make ~print:Fun.id gen_raw_path) (fun p ->
      let n = stored p in
      n = reference_normalize p
      (* a normal path is stored as it is, not as a copy *)
      && stored n == n
      && (n <> p || stored p == p))

(* -- Image handles --------------------------------------------------------- *)

let lib_image soname =
  Feam_elf.Builder.build (Feam_elf.Spec.make ~soname Feam_elf.Types.X86_64)

let handle fs path =
  match Vfs.resolve_image fs path with
  | Some (_, image) -> image
  | None -> Alcotest.fail ("no ELF file at " ^ path)

let parse_at fs path =
  match Feam_elf.Reader.parse_image (handle fs path) with
  | Ok parsed -> parsed
  | Error e -> Alcotest.fail (Feam_elf.Reader.error_to_string e)

let soname_of parsed = (Feam_elf.Reader.spec parsed).Feam_elf.Spec.soname

let parse_memo_hits () =
  Option.value ~default:0 (Feam_obs.Metrics.counter_value "elf.parse_memo.hit")

(* A file carries its image handle through a scope: replaced inside the
   scope, it parses as the new image there, and once the scope puts the
   old file back, the old parse returns as a memo hit. *)
let test_image_survives_scope () =
  let fs = mk () in
  Vfs.add fs "/lib/libz.so.1" (Vfs.Elf (lib_image "libz.so.1"));
  Vfs.add fs "/lib/libz.so" (Vfs.Symlink "libz.so.1");
  let before = parse_at fs "/lib/libz.so.1" in
  let kept = handle fs "/lib/libz.so.1" in
  Alcotest.(check bool) "a symlink reads the same handle" true
    (handle fs "/lib/libz.so" == kept);
  Vfs.scoped fs (fun () ->
      Vfs.add fs "/lib/libz.so.1" (Vfs.Elf (lib_image "libz-new.so.1"));
      Alcotest.(check (option string)) "the replacement parses in the scope"
        (Some "libz-new.so.1")
        (soname_of (parse_at fs "/lib/libz.so.1")));
  let hits = parse_memo_hits () in
  let after = parse_at fs "/lib/libz.so.1" in
  Alcotest.(check bool) "the old parse is back" true (after == before);
  Alcotest.(check bool) "through the handle it had" true
    (handle fs "/lib/libz.so.1" == kept);
  Alcotest.(check int) "and it counts as a hit" (hits + 1) (parse_memo_hits ());
  Alcotest.(check bool) "a text file has no image" true
    (Vfs.add fs "/etc/hosts" (Vfs.Text "localhost");
     Vfs.resolve_image fs "/etc/hosts" = None
     && Vfs.resolve_image fs "/etc/none" = None)

(* A file added with its handle reads that very handle back. *)
let test_add_image () =
  let fs = mk () in
  let image = Feam_elf.Reader.image (lib_image "libq.so.1") in
  Vfs.add_image ~declared_size:4096 fs "/opt//lib/libq.so.1" image;
  Alcotest.(check (option int)) "declared size" (Some 4096)
    (Vfs.file_size fs "/opt/lib/libq.so.1");
  Alcotest.(check bool) "the same handle" true
    (handle fs "/opt/lib/libq.so.1" == image)

(* -- Scopes ---------------------------------------------------------------- *)

(* Every path with its file: the whole observable state. *)
let state fs = List.map (fun p -> (p, Vfs.find fs p)) (Vfs.find_by_basename fs (fun _ -> true))

let check_state what expected fs =
  Alcotest.(check (list string)) what
    (List.map fst expected) (Vfs.find_by_basename fs (fun _ -> true));
  Alcotest.(check bool) (what ^ ": same files") true (state fs = expected)

let seeded () =
  let fs = mk () in
  Vfs.add fs "/etc/hosts" (Vfs.Text "localhost");
  Vfs.add fs "/tmp/feam/a" (Vfs.Text "a");
  Vfs.add fs "/tmp/feam/sub/b" (Vfs.Text "b");
  Vfs.add fs "/tmp/feam-old" (Vfs.Text "sibling");
  fs

let test_scoped_undoes () =
  let fs = seeded () in
  let before = state fs in
  Vfs.scoped fs (fun () ->
      Vfs.add fs "/new" (Vfs.Text "added");
      Vfs.add ~declared_size:9 fs "/etc/hosts" (Vfs.Text "replaced");
      Vfs.remove fs "/tmp/feam/a";
      Vfs.remove fs "/never/there";
      Vfs.remove_tree fs "/tmp/feam";
      Alcotest.(check (list string)) "changed inside"
        [ "/etc/hosts"; "/new"; "/tmp/feam-old" ]
        (Vfs.find_by_basename fs (fun _ -> true)));
  check_state "undone" before fs

let test_scoped_raise () =
  let fs = seeded () in
  let before = state fs in
  (match
     Vfs.scoped fs (fun () ->
         Vfs.add fs "/tmp/feam/a" (Vfs.Text "other");
         Vfs.add fs "/home/user/elsewhere" (Vfs.Text "x");
         failwith "boom")
   with
  | () -> Alcotest.fail "no raise"
  | exception Failure _ -> ());
  check_state "undone after a raise" before fs;
  (* the log is closed: later writes outside any scope stay *)
  Vfs.add fs "/kept" (Vfs.Text "k");
  Alcotest.(check bool) "write outside a scope stays" true (Vfs.exists fs "/kept")

let test_scoped_nested () =
  let fs = seeded () in
  let before = state fs in
  Vfs.scoped fs (fun () ->
      Vfs.add fs "/outer" (Vfs.Text "o");
      let mid = state fs in
      Vfs.scoped fs (fun () ->
          Vfs.add fs "/inner" (Vfs.Text "i");
          Vfs.add fs "/outer" (Vfs.Text "o2");
          Vfs.remove fs "/etc/hosts");
      check_state "inner scope undoes only its writes" mid fs;
      (try
         Vfs.scoped fs (fun () ->
             Vfs.remove_tree fs "/";
             raise Exit)
       with Exit -> ());
      check_state "a raising inner scope too" mid fs);
  check_state "outer scope undoes the rest" before fs

(* qcheck: any sequence of writes inside nested, sometimes-raising
   scopes leaves every path and file as it was.  The names are siblings
   that sort around '/', so a subtree removal must not catch
   "/a/b-c" when it removes "/a/b". *)
type op =
  | Add of string * string
  | Remove of string
  | Remove_tree of string
  | Raise
  | Scope of bool * op list  (** catches a raise from its body *)

let names = [ "/a"; "/a/b"; "/a/b-c"; "/a/b.c"; "/a/bc"; "/a/b/x"; "/a/b/y/z" ]

let rec show_op = function
  | Add (p, c) -> Printf.sprintf "add %s %s" p c
  | Remove p -> "rm " ^ p
  | Remove_tree p -> "rm -r " ^ p
  | Raise -> "raise"
  | Scope (catch, ops) ->
    Printf.sprintf "scope%s [%s]" (if catch then "?" else "") (show_ops ops)

and show_ops ops = String.concat "; " (List.map show_op ops)

let gen_ops =
  QCheck.Gen.(
    let name = oneofl names in
    let leaf =
      frequency
        [
          (5, map2 (fun p c -> Add (p, c)) name (oneofl [ "1"; "2"; "3" ]));
          (2, map (fun p -> Remove p) name);
          (1, map (fun p -> Remove_tree p) (oneofl [ "/a"; "/a/b"; "/a/b/y" ]));
          (1, return Raise);
        ]
    in
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           let body = list_size (int_range 0 5) (if depth = 0 then leaf else self (depth - 1)) in
           if depth = 0 then leaf
           else
             frequency
               [ (4, leaf); (2, map2 (fun c ops -> Scope (c, ops)) bool body) ])
    |> list_size (int_range 1 8))

(* Run [ops]; every scope is checked on exit against its entry state. *)
let rec run fs ok = function
  | [] -> ()
  | op :: rest ->
    (match op with
    | Add (p, c) -> Vfs.add fs p (Vfs.Text c)
    | Remove p -> Vfs.remove fs p
    | Remove_tree p -> Vfs.remove_tree fs p
    | Raise -> raise Exit
    | Scope (catch, ops) ->
      let before = state fs in
      (try Vfs.scoped fs (fun () -> run fs ok ops)
       with Exit when catch -> ());
      if state fs <> before then ok := false);
    run fs ok rest

let prop_scoped_restores =
  QCheck.Test.make ~name:"vfs: nested scopes restore every file" ~count:500
    (QCheck.pair
       (QCheck.make ~print:show_ops gen_ops)
       (QCheck.make ~print:show_ops gen_ops))
    (fun (setup, ops) ->
      let fs = mk () in
      (try run fs (ref true) setup with Exit -> ());
      let before = state fs in
      let ok = ref true in
      (try Vfs.scoped fs (fun () -> run fs ok ops) with Exit -> ());
      !ok && state fs = before)

(* The generation counts the writes that last: a scope's writes are
   undone, so they leave it where it was, also when the scope raises and
   when scopes nest. *)
let test_generation () =
  let fs = mk () in
  let gen = Vfs.generation fs in
  Vfs.add fs "/a/x" (Vfs.Text "1");
  Alcotest.(check int) "a write outside any scope bumps it" (gen + 1)
    (Vfs.generation fs);
  let gen = Vfs.generation fs in
  Vfs.scoped fs (fun () ->
      Vfs.add fs "/a/y" (Vfs.Text "2");
      Vfs.remove fs "/a/x");
  Alcotest.(check int) "scoped writes leave it" gen (Vfs.generation fs);
  (try
     Vfs.scoped fs (fun () ->
         Vfs.add fs "/a/z" (Vfs.Text "3");
         raise Exit)
   with Exit -> ());
  Alcotest.(check int) "a raising scope leaves it" gen (Vfs.generation fs);
  Vfs.scoped fs (fun () ->
      Vfs.add fs "/a/y" (Vfs.Text "4");
      Vfs.scoped fs (fun () -> Vfs.remove_tree fs "/a");
      (try Vfs.scoped fs (fun () -> Vfs.add fs "/b" (Vfs.Text ""); raise Exit)
       with Exit -> ());
      Vfs.add fs "/c" (Vfs.Text ""));
  Alcotest.(check int) "nested scopes leave it" gen (Vfs.generation fs);
  Vfs.remove fs "/a/x";
  Alcotest.(check int) "a removal outside any scope bumps it" (gen + 1)
    (Vfs.generation fs)

(* Directory versions (DESIGN §21).  A read set taken by a tracked
   lookup stays unchanged exactly until a write or an undo touches a
   directory it consulted. *)
let tracked fs paths =
  let reads = Vfs.reads () in
  List.iter (fun p -> ignore (Vfs.resolve_image ~reads fs p)) paths;
  reads

let test_versions_move_with_writes () =
  let fs = mk () in
  Vfs.add fs "/a/x" (Vfs.Text "1");
  let moved what write =
    let a = tracked fs [ "/a/x" ] and b = tracked fs [ "/b/y" ] in
    write ();
    Alcotest.(check bool) (what ^ " moves /a") false (Vfs.unchanged a);
    Alcotest.(check bool) (what ^ " leaves /b") true (Vfs.unchanged b)
  in
  moved "add" (fun () -> Vfs.add fs "/a/new" (Vfs.Text "n"));
  moved "replace" (fun () -> Vfs.add fs "/a/x" (Vfs.Text "2"));
  moved "add_image" (fun () ->
      Vfs.add_image fs "/a/img" (Feam_elf.Reader.image "\x7fELF"));
  moved "remove" (fun () -> Vfs.remove fs "/a/new");
  moved "remove_tree" (fun () -> Vfs.remove_tree fs "/a");
  moved "a missing file's directory" (fun () -> Vfs.add fs "/a/x" (Vfs.Text "3"));
  moved "a scoped write" (fun () ->
      Vfs.scoped fs (fun () ->
          let inside = tracked fs [ "/a/x" ] in
          Vfs.add fs "/a/z" (Vfs.Text "z");
          Alcotest.(check bool) "inside the scope too" false (Vfs.unchanged inside)));
  (* An undo moves the version: a read set taken inside a scope, after
     its writes, does not survive the scope's end. *)
  let inside = ref (Vfs.reads ()) in
  Vfs.scoped fs (fun () ->
      Vfs.add fs "/a/z" (Vfs.Text "z");
      inside := tracked fs [ "/a/x"; "/a/z" ]);
  Alcotest.(check bool) "the undo moves it" false (Vfs.unchanged !inside);
  (try
     Vfs.scoped fs (fun () ->
         Vfs.add fs "/a/z" (Vfs.Text "z");
         inside := tracked fs [ "/a/z" ];
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "the undo of a raising scope moves it" false
    (Vfs.unchanged !inside)

(* A version never repeats: a scope that puts every file back still
   leaves its directories at new versions. *)
let test_versions_never_repeat () =
  let fs = mk () in
  Vfs.add fs "/a/x" (Vfs.Text "1");
  let before = tracked fs [ "/a/x" ] in
  Vfs.scoped fs (fun () -> Vfs.add fs "/a/x" (Vfs.Text "2"));
  Alcotest.(check bool) "same files, new version" false (Vfs.unchanged before);
  let after = tracked fs [ "/a/x" ] in
  Vfs.scoped fs (fun () -> Vfs.scoped fs (fun () -> Vfs.remove fs "/a/x"));
  Alcotest.(check bool) "nested undos move it too" false (Vfs.unchanged after);
  let quiet = tracked fs [ "/a/x" ] in
  Vfs.scoped fs (fun () -> ignore (Vfs.find fs "/a/x"));
  Alcotest.(check bool) "a scope that writes nothing moves nothing" true
    (Vfs.unchanged quiet)

(* A tracked lookup through a symlink consults the link's directory and
   the target's. *)
let test_tracked_symlink () =
  let fs = mk () in
  Vfs.add fs "/lib/real/libz.so.1.2" (Vfs.Elf "\x7fELF");
  Vfs.add fs "/lib/libz.so.1" (Vfs.Symlink "real/libz.so.1.2");
  let via_link () =
    let reads = Vfs.reads () in
    Alcotest.(check (option string)) "the link resolves"
      (Some "/lib/real/libz.so.1.2")
      (Option.map fst (Vfs.resolve_image ~reads fs "/lib/libz.so.1"));
    reads
  in
  let reads = via_link () in
  Vfs.add fs "/lib/real/other" (Vfs.Text "");
  Alcotest.(check bool) "the target's directory is in the set" false (Vfs.unchanged reads);
  let reads = via_link () in
  Vfs.add fs "/lib/other" (Vfs.Text "");
  Alcotest.(check bool) "the link's directory is in the set" false (Vfs.unchanged reads);
  let reads = via_link () in
  Vfs.add fs "/usr/lib/other" (Vfs.Text "");
  Alcotest.(check bool) "no other directory is" true (Vfs.unchanged reads)

let test_entry_restores_symlink () =
  let fs = mk () in
  Vfs.add ~declared_size:4096 fs "/lib/libz.so.1.2" (Vfs.Elf "\x7fELF");
  Vfs.add ~declared_size:7 fs "/lib/libz.so.1" (Vfs.Symlink "libz.so.1.2");
  let link = Vfs.entry fs "/lib//libz.so.1" in
  Alcotest.(check bool) "the raw lookup does not follow the link" true
    (link = Some { Vfs.kind = Vfs.Symlink "libz.so.1.2"; declared_size = 7 });
  Alcotest.(check bool) "find does" true
    (Vfs.find fs "/lib/libz.so.1"
    = Some { Vfs.kind = Vfs.Elf "\x7fELF"; declared_size = 4096 });
  Alcotest.(check bool) "a missing path has no entry" true
    (Vfs.entry fs "/lib/libz.so" = None);
  let gen = Vfs.generation fs in
  Vfs.remove fs "/lib/libz.so.1";
  (match link with
  | Some { Vfs.kind; declared_size } ->
    Vfs.add ~declared_size fs "/lib/libz.so.1" kind
  | None -> ());
  Alcotest.(check bool) "re-adding the entry restores the link as stored" true
    (Vfs.entry fs "/lib/libz.so.1" = link);
  Alcotest.(check int) "the generation counts the removal and the re-add"
    (gen + 2) (Vfs.generation fs)

let suite =
  ( "vfs",
    [
      Alcotest.test_case "add/find" `Quick test_add_find;
      Alcotest.test_case "normalize" `Quick test_normalize;
      Alcotest.test_case "dirname/basename" `Quick test_dirname_basename;
      Alcotest.test_case "symlinks" `Quick test_symlink;
      Alcotest.test_case "list dir" `Quick test_list_dir;
      Alcotest.test_case "find by basename" `Quick test_find_by_basename;
      Alcotest.test_case "sizes" `Quick test_sizes;
      Alcotest.test_case "remove" `Quick test_remove;
      Alcotest.test_case "overwrite" `Quick test_overwrite;
      QCheck_alcotest.to_alcotest prop_normalize_idempotent;
      QCheck_alcotest.to_alcotest prop_normalize_reference;
      Alcotest.test_case "an image handle survives a scope" `Quick
        test_image_survives_scope;
      Alcotest.test_case "add_image keeps its handle" `Quick test_add_image;
      Alcotest.test_case "scoped undoes every write" `Quick test_scoped_undoes;
      Alcotest.test_case "scoped undoes after a raise" `Quick test_scoped_raise;
      Alcotest.test_case "nested scopes" `Quick test_scoped_nested;
      Alcotest.test_case "writes and undos move directory versions" `Quick
        test_versions_move_with_writes;
      Alcotest.test_case "a directory version never repeats" `Quick
        test_versions_never_repeat;
      Alcotest.test_case "a tracked lookup sees both ends of a symlink" `Quick
        test_tracked_symlink;
      QCheck_alcotest.to_alcotest prop_scoped_restores;
      Alcotest.test_case "entry is the stored file, link not followed" `Quick
        test_entry_restores_symlink;
      Alcotest.test_case "generation counts lasting writes" `Quick
        test_generation;
    ] )
