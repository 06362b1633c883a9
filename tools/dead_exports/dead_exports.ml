(* dead_exports — fail on a library export that no other module uses.

   Usage: dead_exports.exe ROOT [ALLOWLIST]

   ROOT is a dune build context (_build/default, or a fixture tree laid
   out like it).  Every value a compilation unit under ROOT/lib exports
   (its .mli, or its .ml when it has none, nested submodules included)
   must be used by another compilation unit under ROOT/lib, bin, bench,
   perfbench or examples.  Uses are read from the typed trees dune
   leaves in .cmt files: a use is an identifier whose declaration is
   the export, so opens, module aliases and re-exports resolve the way
   the compiler resolved them, and a module's own uses of its exports
   never count.  A module passed whole as a functor argument, included
   or packed counts as using all of its values.

   The allowlist names deliberate exports without a user, one a line:
   the dotted export path, then the reason.  An entry without a reason,
   or one that names no dead export, fails the check too, so the list
   stays short and true.  ROOT/test is read only to say, of a dead
   export, that tests are its only user.

   Exit 0 when every export is used or allowlisted, 1 otherwise (each
   offender on stderr as FILE:LINE: PATH), 2 on a usage error. *)

let rec files_under dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then files_under path acc else path :: acc)
        acc names

let with_ext ext files = List.filter (fun f -> Filename.check_suffix f ext) files

(* dune names a unit's artifacts after the unit: feam_core__Bdc.cmt. *)
let unit_of_file f = String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

(* Feam_core__Bdc -> Feam_core.Bdc: the path a reader writes. *)
let display_unit u =
  let b = Buffer.create (String.length u) in
  let n = String.length u in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && u.[!i] = '_' && u.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b u.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* ['uid] is the compiler's declaration id ([Types.value_description]'s
   [val_uid]); it is compared structurally and never named, so the
   program reads the same on every supported compiler. *)
type 'uid export = {
  unit : string;  (** compilation unit, as dune names it *)
  path : string;  (** dotted path inside the unit: [v] or [Sub.v] *)
  uid : 'uid;
  file : string;
  line : int;
}

let rec exports_of_sig ~unit ~file ~prefix acc (sg : Types.signature) =
  List.fold_left
    (fun acc item ->
      match item with
      | Types.Sig_value (id, vd, _) ->
          {
            unit;
            path = prefix ^ Ident.name id;
            uid = vd.Types.val_uid;
            file;
            line = vd.Types.val_loc.Location.loc_start.Lexing.pos_lnum;
          }
          :: acc
      | Types.Sig_module (id, _, md, _, _) -> (
          match md.Types.md_type with
          | Types.Mty_signature sub ->
              exports_of_sig ~unit ~file ~prefix:(prefix ^ Ident.name id ^ ".") acc sub
          | _ -> acc)
      | _ -> acc)
    acc sg

(* A unit's exports: its interface when it has one, else its
   implementation.  dune's generated alias modules (.ml-gen) export
   nothing of their own. *)
let exports_of_dir dir =
  let files = files_under dir [] in
  let cmtis = with_ext ".cmti" files in
  let has_cmti cmt = List.mem (Filename.remove_extension cmt ^ ".cmti") cmtis in
  let read f =
    let info = Cmt_format.read_cmt f in
    let source = Option.value info.Cmt_format.cmt_sourcefile ~default:f in
    let unit = unit_of_file f in
    match info.Cmt_format.cmt_annots with
    | Cmt_format.Interface sg -> exports_of_sig ~unit ~file:source ~prefix:"" [] sg.Typedtree.sig_type
    | Cmt_format.Implementation str when not (Filename.check_suffix source "-gen") ->
        exports_of_sig ~unit ~file:source ~prefix:"" [] str.Typedtree.str_type
    | _ -> []
  in
  List.concat_map read cmtis
  @ List.concat_map read (List.filter (fun f -> not (has_cmti f)) (with_ext ".cmt" files))

type 'uid uses = {
  values : ('uid, string list) Hashtbl.t;  (** uid -> units that name it *)
  modules : (string, string list) Hashtbl.t;  (** path used whole -> units *)
}

let note tbl key unit =
  let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
  if not (List.mem unit prev) then Hashtbl.replace tbl key (unit :: prev)

let record_uses uses dir =
  List.iter
    (fun f ->
      match (Cmt_format.read_cmt f).Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let unit = unit_of_file f in
          let whole (me : Typedtree.module_expr) =
            match me.Typedtree.mod_desc with
            | Typedtree.Tmod_ident (p, _) -> note uses.modules (Path.name p) unit
            | _ -> ()
          in
          let super = Tast_iterator.default_iterator in
          let iter =
            {
              super with
              expr =
                (fun self e ->
                  (match e.Typedtree.exp_desc with
                  | Typedtree.Texp_ident (_, _, vd) -> note uses.values vd.Types.val_uid unit
                  | Typedtree.Texp_pack me -> whole me
                  | _ -> ());
                  super.expr self e);
              module_expr =
                (fun self me ->
                  (match me.Typedtree.mod_desc with
                  | Typedtree.Tmod_apply (_, arg, _) -> whole arg
                  | _ -> ());
                  super.module_expr self me);
              structure_item =
                (fun self item ->
                  (match item.Typedtree.str_desc with
                  | Typedtree.Tstr_include incl -> whole incl.Typedtree.incl_mod
                  | _ -> ());
                  super.structure_item self item);
            }
          in
          iter.structure iter str
      | _ -> ())
    (with_ext ".cmt" (files_under dir []))

(* Does a module path used whole ([Feam_util.Chash], [Feam_util__Chash],
   or [Chash] under the library's own open) cover this export? *)
let covered_by_module ex used_path =
  let unit = display_unit ex.unit in
  let full = unit ^ "." ^ ex.path in
  let used = display_unit used_path in
  let suffix s ~of_ =
    let ls = String.length s and lo = String.length of_ in
    ls <= lo && String.sub of_ (lo - ls) ls = s && (ls = lo || of_.[lo - ls - 1] = '.')
  in
  let module_of_path = String.sub full 0 (String.rindex full '.') in
  suffix used ~of_:module_of_path || suffix used ~of_:unit

let users uses ex =
  let by_value =
    Option.value (Hashtbl.find_opt uses.values ex.uid) ~default:[]
    |> List.filter (fun u -> u <> ex.unit)
  in
  let by_module =
    Hashtbl.fold
      (fun p units acc ->
        if covered_by_module ex p then List.filter (fun u -> u <> ex.unit) units @ acc else acc)
      uses.modules []
  in
  by_value @ by_module

let read_allowlist file =
  let ic = open_in file in
  let rec loop n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (n + 1) acc
        else
          let name, reason =
            match String.index_opt line ' ' with
            | None -> (line, "")
            | Some i -> (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
          in
          loop (n + 1) ((name, reason, n) :: acc)
  in
  loop 1 []

let () =
  let root, allow =
    match Array.to_list Sys.argv with
    | [ _; root ] -> (root, None)
    | [ _; root; allowlist ] -> (root, Some allowlist)
    | _ ->
        prerr_endline "usage: dead_exports.exe ROOT [ALLOWLIST]";
        exit 2
  in
  let under d = Filename.concat root d in
  let exports = exports_of_dir (under "lib") in
  let fresh () = { values = Hashtbl.create 4096; modules = Hashtbl.create 64 } in
  let uses = fresh () and test_uses = fresh () in
  List.iter (fun d -> record_uses uses (under d)) [ "lib"; "bin"; "bench"; "perfbench"; "examples" ];
  record_uses test_uses (under "test");
  let name ex = display_unit ex.unit ^ "." ^ ex.path in
  let dead =
    List.filter (fun ex -> users uses ex = []) exports
    |> List.sort_uniq (fun a b -> compare (name a) (name b))
  in
  let allowed = match allow with None -> [] | Some f -> read_allowlist f in
  let failed = ref false in
  let fail fmt =
    failed := true;
    Printf.eprintf fmt
  in
  List.iter
    (fun ex ->
      if not (List.exists (fun (n, _, _) -> n = name ex) allowed) then
        fail "%s:%d: %s has no user outside its module%s\n" ex.file ex.line (name ex)
          (if users test_uses ex <> [] then " (tests only)" else ""))
    dead;
  let file = Option.value allow ~default:"" in
  List.iter
    (fun (n, reason, line) ->
      if reason = "" then fail "%s:%d: %s: an allowlist entry needs a reason\n" file line n
      else if not (List.exists (fun ex -> name ex = n) dead) then
        fail "%s:%d: %s is allowlisted but is not a dead export\n" file line n)
    allowed;
  if !failed then exit 1
